#include "sim/wire.h"

#include <bit>
#include <cstring>

#include "storage/wal_format.h"

namespace rnt::sim {

namespace {

using storage::GetU32;
using storage::GetU64;
using storage::PutU32;
using storage::PutU64;

/// Bounds-checked little-endian reader over a byte span.
class Reader {
 public:
  Reader(const unsigned char* p, std::size_t size) : p_(p), left_(size) {}

  bool U8(std::uint8_t& v) {
    if (left_ < 1) return false;
    v = *p_;
    ++p_;
    --left_;
    return true;
  }
  bool U32(std::uint32_t& v) {
    if (left_ < 4) return false;
    v = GetU32(p_);
    p_ += 4;
    left_ -= 4;
    return true;
  }
  bool U64(std::uint64_t& v) {
    if (left_ < 8) return false;
    v = GetU64(p_);
    p_ += 8;
    left_ -= 8;
    return true;
  }
  bool F64(double& v) {
    std::uint64_t bits = 0;
    if (!U64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }
  /// EncodeSummary writes entries in strictly increasing id order, so
  /// each one is appended at the end of the map in O(1); ids out of
  /// order are malformed.
  bool Summary(dist::ActionSummary& s) {
    std::uint32_t n = 0;
    if (!U32(n)) return false;
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t a = 0;
      std::uint8_t st = 0;
      if (!U32(a) || !U8(st)) return false;
      if (i > 0 && a <= last_id_) return false;
      last_id_ = a;
      s.AppendLargest(a, static_cast<action::ActionStatus>(st));
    }
    return true;
  }
  std::size_t left() const { return left_; }

 private:
  const unsigned char* p_;
  std::size_t left_;
  std::uint32_t last_id_ = 0;
};

constexpr std::uint8_t kEvCreate = 1;
constexpr std::uint8_t kEvCommit = 2;
constexpr std::uint8_t kEvAbort = 3;
constexpr std::uint8_t kEvPerform = 4;
constexpr std::uint8_t kEvRelease = 5;
constexpr std::uint8_t kEvLose = 6;
constexpr std::uint8_t kEvSend = 7;
constexpr std::uint8_t kEvReceive = 8;

std::string Finish(FrameType type, const std::string& body) {
  std::string out;
  out.reserve(4 + 1 + body.size());
  PutU32(out, static_cast<std::uint32_t>(1 + body.size()));
  out.push_back(static_cast<char>(type));
  out.append(body);
  return out;
}

}  // namespace

std::uint64_t SummaryScalar(const dist::ActionSummary& s) {
  std::uint64_t scalar = s.size();
  for (const auto& [a, st] : s.entries()) {
    if (st != action::ActionStatus::kActive) ++scalar;
  }
  return scalar;
}

void EncodeSummary(std::string& out, const dist::ActionSummary& s) {
  PutU32(out, static_cast<std::uint32_t>(s.size()));
  for (const auto& [a, st] : s.entries()) {
    PutU32(out, a);
    out.push_back(static_cast<char>(st));
  }
}

std::string EncodeHello(const HelloFrame& f) {
  std::string body;
  PutU32(body, f.node);
  PutU32(body, f.incarnation);
  body.push_back(f.recovered ? 1 : 0);
  PutU64(body, f.recovered_scalar);
  PutU64(body, f.clock);
  return Finish(FrameType::kHello, body);
}

std::string EncodeSummaryFrame(const SummaryFrame& f) {
  std::string body;
  PutU32(body, f.from);
  PutU32(body, f.to);
  PutU64(body, f.clock);
  PutU32(body, f.delay);
  EncodeSummary(body, f.summary);
  return Finish(FrameType::kSummary, body);
}

std::string EncodeHeartbeat(const HeartbeatFrame& f) {
  std::string body;
  PutU32(body, f.node);
  PutU64(body, f.clock);
  body.push_back(static_cast<char>((f.done ? 1 : 0) | (f.gave_up ? 2 : 0)));
  PutU64(body, f.acked_scalar);
  PutU64(body, f.retries);
  PutU64(body, f.timeout_aborts);
  PutU64(body, std::bit_cast<std::uint64_t>(f.phases.pass_s));
  PutU64(body, std::bit_cast<std::uint64_t>(f.phases.persist_s));
  PutU64(body, std::bit_cast<std::uint64_t>(f.phases.wait_s));
  PutU64(body, f.phases.passes);
  PutU64(body, f.phases.persists);
  return Finish(FrameType::kHeartbeat, body);
}

std::string EncodeAllDone() { return Finish(FrameType::kAllDone, ""); }

void EncodeFrame(std::string& out, const Frame& f) {
  switch (f.type) {
    case FrameType::kHello:
      out.append(EncodeHello(f.hello));
      return;
    case FrameType::kSummary:
      out.append(EncodeSummaryFrame(f.summary));
      return;
    case FrameType::kHeartbeat:
      out.append(EncodeHeartbeat(f.heartbeat));
      return;
    case FrameType::kAllDone:
      out.append(EncodeAllDone());
      return;
  }
}

Status DrainFrames(std::string& buf, std::vector<Frame>& out) {
  std::size_t off = 0;
  const auto* base = reinterpret_cast<const unsigned char*>(buf.data());
  while (buf.size() - off >= 4) {
    const std::uint32_t len = GetU32(base + off);
    if (len < 1 || len > (64u << 20)) {
      return Status::DataLoss("wire: insane frame length " +
                              std::to_string(len));
    }
    if (buf.size() - off - 4 < len) break;  // incomplete frame
    Reader r(base + off + 4, len);
    std::uint8_t type = 0;
    if (!r.U8(type)) return Status::DataLoss("wire: empty frame");
    Frame f;
    bool ok = true;
    switch (static_cast<FrameType>(type)) {
      case FrameType::kHello: {
        f.type = FrameType::kHello;
        std::uint8_t rec = 0;
        ok = r.U32(f.hello.node) && r.U32(f.hello.incarnation) &&
             r.U8(rec) && r.U64(f.hello.recovered_scalar) &&
             r.U64(f.hello.clock);
        f.hello.recovered = rec != 0;
        break;
      }
      case FrameType::kSummary:
        f.type = FrameType::kSummary;
        ok = r.U32(f.summary.from) && r.U32(f.summary.to) &&
             r.U64(f.summary.clock) && r.U32(f.summary.delay) &&
             r.Summary(f.summary.summary);
        break;
      case FrameType::kHeartbeat: {
        f.type = FrameType::kHeartbeat;
        std::uint8_t flags = 0;
        NodePhases& p = f.heartbeat.phases;
        ok = r.U32(f.heartbeat.node) && r.U64(f.heartbeat.clock) &&
             r.U8(flags) && r.U64(f.heartbeat.acked_scalar) &&
             r.U64(f.heartbeat.retries) && r.U64(f.heartbeat.timeout_aborts) &&
             r.F64(p.pass_s) && r.F64(p.persist_s) && r.F64(p.wait_s) &&
             r.U64(p.passes) && r.U64(p.persists);
        f.heartbeat.done = (flags & 1) != 0;
        f.heartbeat.gave_up = (flags & 2) != 0;
        break;
      }
      case FrameType::kAllDone:
        f.type = FrameType::kAllDone;
        break;
      default:
        return Status::DataLoss("wire: unknown frame type " +
                                std::to_string(type));
    }
    if (!ok || r.left() != 0) {
      return Status::DataLoss("wire: malformed frame of type " +
                              std::to_string(type));
    }
    out.push_back(std::move(f));
    off += 4 + len;
  }
  buf.erase(0, off);
  return Status::Ok();
}

void EncodeEvent(std::string& out, const dist::DistEvent& e) {
  if (const auto* v = std::get_if<dist::NodeCreate>(&e)) {
    out.push_back(static_cast<char>(kEvCreate));
    PutU32(out, v->i);
    PutU32(out, v->a);
  } else if (const auto* v = std::get_if<dist::NodeCommit>(&e)) {
    out.push_back(static_cast<char>(kEvCommit));
    PutU32(out, v->i);
    PutU32(out, v->a);
  } else if (const auto* v = std::get_if<dist::NodeAbort>(&e)) {
    out.push_back(static_cast<char>(kEvAbort));
    PutU32(out, v->i);
    PutU32(out, v->a);
  } else if (const auto* v = std::get_if<dist::NodePerform>(&e)) {
    out.push_back(static_cast<char>(kEvPerform));
    PutU32(out, v->i);
    PutU32(out, v->a);
    PutU64(out, static_cast<std::uint64_t>(v->u));
  } else if (const auto* v = std::get_if<dist::NodeReleaseLock>(&e)) {
    out.push_back(static_cast<char>(kEvRelease));
    PutU32(out, v->i);
    PutU32(out, v->a);
    PutU32(out, v->x);
  } else if (const auto* v = std::get_if<dist::NodeLoseLock>(&e)) {
    out.push_back(static_cast<char>(kEvLose));
    PutU32(out, v->i);
    PutU32(out, v->a);
    PutU32(out, v->x);
  } else if (const auto* v = std::get_if<dist::Send>(&e)) {
    out.push_back(static_cast<char>(kEvSend));
    PutU32(out, v->from);
    PutU32(out, v->to);
    EncodeSummary(out, v->summary);
  } else if (const auto* v = std::get_if<dist::Receive>(&e)) {
    out.push_back(static_cast<char>(kEvReceive));
    PutU32(out, v->to);
    EncodeSummary(out, v->summary);
  }
}

StatusOr<dist::DistEvent> DecodeEvent(const unsigned char* p,
                                      std::size_t size) {
  Reader r(p, size);
  std::uint8_t kind = 0;
  if (!r.U8(kind)) return Status::DataLoss("event codec: empty payload");
  bool ok = false;
  dist::DistEvent e;
  switch (kind) {
    case kEvCreate: {
      dist::NodeCreate v;
      ok = r.U32(v.i) && r.U32(v.a);
      e = v;
      break;
    }
    case kEvCommit: {
      dist::NodeCommit v;
      ok = r.U32(v.i) && r.U32(v.a);
      e = v;
      break;
    }
    case kEvAbort: {
      dist::NodeAbort v;
      ok = r.U32(v.i) && r.U32(v.a);
      e = v;
      break;
    }
    case kEvPerform: {
      dist::NodePerform v;
      std::uint64_t u = 0;
      ok = r.U32(v.i) && r.U32(v.a) && r.U64(u);
      v.u = static_cast<Value>(u);
      e = v;
      break;
    }
    case kEvRelease: {
      dist::NodeReleaseLock v;
      ok = r.U32(v.i) && r.U32(v.a) && r.U32(v.x);
      e = v;
      break;
    }
    case kEvLose: {
      dist::NodeLoseLock v;
      ok = r.U32(v.i) && r.U32(v.a) && r.U32(v.x);
      e = v;
      break;
    }
    case kEvSend: {
      dist::Send v;
      ok = r.U32(v.from) && r.U32(v.to) && r.Summary(v.summary);
      e = std::move(v);
      break;
    }
    case kEvReceive: {
      dist::Receive v;
      ok = r.U32(v.to) && r.Summary(v.summary);
      e = std::move(v);
      break;
    }
    default:
      return Status::DataLoss("event codec: unknown kind " +
                              std::to_string(kind));
  }
  if (!ok || r.left() != 0) {
    return Status::DataLoss("event codec: malformed payload of kind " +
                            std::to_string(kind));
  }
  return e;
}

}  // namespace rnt::sim
