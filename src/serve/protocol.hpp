// Wire layer for the campaign service: AF_UNIX stream sockets carrying
// newline-delimited JSON in both directions.
//
// Requests (client → server), one object per line, tagged with "op":
//   {"op":"submit","doc":<scenario or campaign document>}
//   {"op":"status"}            {"op":"cancel","job":"<id>"}
//   {"op":"drain"}             {"op":"shutdown"}
// Every request gets exactly one response object that echoes "op" and
// carries "status" ("ok", "invalid", "queue_full", "draining",
// "unknown_job", "bad_request").  Result frames (server → client) are
// asynchronous objects tagged with "frame" instead of "op":
//   {"frame":"result","job":...,"key":...,"status":...,
//    "point_wall_ms":...[,"report":...][,"error":...]}
//   {"frame":"done","job":...,"total":...,"ok":...,"failed":...,
//    "skipped":...,"cancelled":...}
// The two tag keys never collide, so one connection can interleave
// request/response turns with streamed results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "obs/json.hpp"

namespace mhp::serve {

/// Thin owner of a connected socket fd.  Writes loop over partial sends
/// and suppress SIGPIPE (MSG_NOSIGNAL); a peer hangup turns the socket
/// dead rather than killing the process.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Send `line` plus a trailing '\n'.  False when the peer is gone.
  bool send_line(const std::string& line);

  /// Half-close both directions (unblocks a reader on the other side).
  void shutdown_both();
  void close();

 private:
  int fd_ = -1;
};

/// Connect to a listening UNIX socket.  Throws std::runtime_error with
/// the path and errno text on failure.
Socket connect_unix(const std::string& path);

/// Bind + listen on `path`.  A stale socket file from a dead server is
/// unlinked first; a live listener on the same path is an error.
Socket listen_unix(const std::string& path, int backlog = 64);

/// Longest request line the server reads (without its '\n').  A client
/// that sends more gets a bad_request frame and the connection closes, so
/// no peer can make the daemon buffer without limit.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{4} << 20;

/// Buffered line reader over a socket: next() returns the next
/// newline-terminated line (without the '\n'), or nullopt on EOF /
/// connection reset, or once a line runs past `max_line` bytes — then
/// too_long() is true and the reader returns nothing more.
class LineReader {
 public:
  explicit LineReader(int fd, std::size_t max_line = SIZE_MAX)
      : fd_(fd), max_line_(max_line) {}
  std::optional<std::string> next();
  bool too_long() const { return too_long_; }

 private:
  int fd_;
  std::size_t max_line_;
  std::string buf_;
  std::size_t scanned_ = 0;  // prefix of buf_ known to hold no '\n'
  bool too_long_ = false;
};

}  // namespace mhp::serve
