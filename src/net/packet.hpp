// Link-layer frames.
//
// The channel transports opaque frames; protocol layers (polling protocol,
// S-MAC, AODV) attach their own typed payload via std::any.  Frame size in
// bytes determines airtime at the radio bandwidth.
#pragma once

#include <any>
#include <cstdint>

#include "net/ids.hpp"

namespace mhp {

/// Broadcast destination: every node that can decode the frame receives it.
inline constexpr NodeId kBroadcast = kNoNode - 1;

enum class FrameKind : std::uint8_t {
  kData,      // sensor data packet (possibly relayed)
  kControl,   // polling / wake-up / sleep / inquiry messages from the head
  kAck,       // sensor acknowledgement (possibly aggregated along a path)
  kMac,       // baseline MAC control (RTS/CTS/ACK/SYNC)
  kRouting,   // baseline routing control (RREQ/RREP/RERR)
  kProbe,     // interference-pattern probing
};

struct Frame {
  std::uint64_t uid = 0;  // unique per transmission attempt
  FrameKind kind = FrameKind::kData;
  NodeId src = kNoNode;       // link-layer sender
  NodeId dst = kBroadcast;    // link-layer destination (or broadcast)
  NodeId origin = kNoNode;    // node that generated the payload
  std::uint32_t size_bytes = 0;
  std::any payload;           // protocol-defined
};

/// Allocate frame uids (one counter per simulation keeps them reproducible).
class FrameUidSource {
 public:
  std::uint64_t next() { return ++last_; }

 private:
  std::uint64_t last_ = 0;
};

}  // namespace mhp
