#ifndef RNT_SIM_WIRE_H_
#define RNT_SIM_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dist/dist_algebra.h"
#include "dist/summary.h"
#include "sim/phases.h"

namespace rnt::sim {

/// Wire protocol between rnt_node processes and the supervisor's
/// SocketHub, plus the byte codecs the per-node trace files reuse.
///
/// Frame layout on the stream:  len u32 · type u8 · body.
/// `len` counts the type byte plus the body. All integers are
/// little-endian (the wal_format.h helpers). Streams are reliable
/// (SOCK_STREAM), so frames carry no checksum — a reconnect always
/// starts at a frame boundary because the hub and nodes only ever write
/// whole frames.

enum class FrameType : std::uint8_t {
  /// node → hub, first frame after (re)connect. Carries the rebirth
  /// evidence: `recovered_scalar` is the monotone size measure of the
  /// summary the node recovered from its durable RetentionLog.
  kHello = 1,
  /// A summary transmission, either direction (the hub routes it).
  kSummary = 2,
  /// node → hub liveness + progress: Lamport clock, done/gave-up flags,
  /// the durably-acknowledged retention scalar, the watchdog's counters
  /// and the node's phase counters.
  kHeartbeat = 3,
  /// hub → node: every node is done; finish up and exit cleanly.
  kAllDone = 4,
};

struct HelloFrame {
  NodeId node = 0;
  std::uint32_t incarnation = 0;
  bool recovered = false;
  std::uint64_t recovered_scalar = 0;
  std::uint64_t clock = 0;
};

struct SummaryFrame {
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t clock = 0;
  /// Receiver-side hold passes (fault-injected delay; travels with the
  /// message exactly as TransportMessage::delay does in-process).
  std::uint32_t delay = 0;
  dist::ActionSummary summary;
};

struct HeartbeatFrame {
  NodeId node = 0;
  std::uint64_t clock = 0;
  bool done = false;
  bool gave_up = false;
  std::uint64_t acked_scalar = 0;
  /// This incarnation's anti-entropy retries and timeout-aborts so far.
  std::uint64_t retries = 0;
  std::uint64_t timeout_aborts = 0;
  NodePhases phases;
};

struct Frame {
  FrameType type = FrameType::kHello;
  HelloFrame hello;
  SummaryFrame summary;
  HeartbeatFrame heartbeat;
};

/// The monotone size measure of a summary used by the recovered ≥ acked
/// invariant: entries plus done entries. Retention is monotone (entries
/// only appear, statuses only upgrade active → done), so this scalar
/// never decreases along a node's retention history — and dedupe-style
/// log compaction preserves it exactly.
std::uint64_t SummaryScalar(const dist::ActionSummary& s);

void EncodeSummary(std::string& out, const dist::ActionSummary& s);

/// Appends one whole frame (len header included) to `out`.
void EncodeFrame(std::string& out, const Frame& f);

std::string EncodeHello(const HelloFrame& f);
std::string EncodeSummaryFrame(const SummaryFrame& f);
std::string EncodeHeartbeat(const HeartbeatFrame& f);
std::string EncodeAllDone();

/// Incremental frame parser over a stream buffer: consumes as many
/// complete frames from the front of `buf` as are present, appending
/// them to `out`. Returns kDataLoss on a malformed frame (the stream is
/// then unusable). Leftover bytes stay in `buf` for the next read.
Status DrainFrames(std::string& buf, std::vector<Frame>& out);

/// ℬ event codec, shared by the kSummary path and the per-node trace
/// files (event_log.h): kind u8 · fields, summaries length-prefixed.
void EncodeEvent(std::string& out, const dist::DistEvent& e);
StatusOr<dist::DistEvent> DecodeEvent(const unsigned char* p,
                                      std::size_t size);

}  // namespace rnt::sim

#endif  // RNT_SIM_WIRE_H_
