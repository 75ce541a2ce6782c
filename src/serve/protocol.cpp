#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace mhp::serve {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " +
                           std::strerror(errno));
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed.push_back('\n');
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("cannot create socket for", path);
  Socket sock(fd);
  const sockaddr_un addr = make_addr(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0)
    fail("cannot connect to", path);
  return sock;
}

Socket listen_unix(const std::string& path, int backlog) {
  // A socket file left behind by a dead server would make bind() fail
  // forever; probe it with a connect and unlink only when nobody answers.
  {
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const sockaddr_un addr = make_addr(path);
      if (::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        ::close(probe);
        throw std::runtime_error("a server is already listening on " + path);
      }
      ::close(probe);
    }
    ::unlink(path.c_str());
  }

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("cannot create socket for", path);
  Socket sock(fd);
  const sockaddr_un addr = make_addr(path);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    fail("cannot bind", path);
  if (::listen(fd, backlog) != 0) fail("cannot listen on", path);
  return sock;
}

std::optional<std::string> LineReader::next() {
  while (!too_long_) {
    const std::size_t nl = buf_.find('\n', scanned_);
    if (nl != std::string::npos && nl <= max_line_) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      scanned_ = 0;
      return line;
    }
    if (nl != std::string::npos || buf_.size() > max_line_) {
      too_long_ = true;
      break;
    }
    scanned_ = buf_.size();
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;  // EOF or reset; partial tail dropped
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  std::string().swap(buf_);
  return std::nullopt;
}

}  // namespace mhp::serve
