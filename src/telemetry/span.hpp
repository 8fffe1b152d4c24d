// Streaming distributed-tracing sink: one SpanTracer per process writes a
// per-node JSONL "trace shard" — one self-contained JSON object per line,
// flushed record-by-record so a SIGKILLed or wedged node still leaves
// every span it finished on disk. tools/discs_trace_merge stitches the
// shards of a multi-process run into one Chrome trace_event file, aligning
// the nodes' RealtimeDriver clocks from the paired send/recv records.
//
// Record vocabulary (all timestamps are local EventLoop microseconds):
//
//   meta    — written once at open(): node id, OS pid, and the
//             (loop_us, wall_us) clock anchor pair the merge tool uses as
//             the coarse cross-node alignment baseline.
//   span    — a completed span: name/cat, (trace, span, parent) ids,
//             start ts + dur, numeric args.
//   instant — a point event inside a trace (same id triple, no dur).
//   send    — envelope (peer, seq, msg type, attempt) left this node
//             carrying trace context (trace, span); one per transmission,
//             so retransmits appear as attempt 2, 3, ...
//   recv    — the matching arrival at the other node. A send at A toward
//             B and a recv at B from A with equal (seq, trace, span) form
//             one clock-alignment pair.
//
// Span/trace ids are allocated as (node_id << 32 | counter), unique across
// the processes of one run without coordination, and serialized as hex
// strings ("0x...") so 64-bit values survive double-precision JSON tools.
//
// Thread-safe (one mutex per record); control-plane rate only — do not put
// it on the data-plane hot path.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simkit/event_loop.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_context.hpp"

namespace discs::telemetry {

/// CLOCK_REALTIME now, in microseconds: the shard meta anchor, and the
/// clock UdpTransport stamps TraceContext's origin_ts_us with. Wall (not
/// steady) clock on purpose: it is the only clock two unrelated processes
/// share, which is what makes the live time-to-protection histogram
/// computable at the peer.
[[nodiscard]] std::uint64_t wall_clock_us();

class SpanTracer {
 public:
  /// Numeric key/value pairs for a span/instant record's `args` object.
  using SpanArgs = std::vector<std::pair<std::string, std::uint64_t>>;

  explicit SpanTracer(std::uint32_t node_id) : node_id_(node_id) {}
  ~SpanTracer() {
    close();
    unbind_metrics();
  }

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Opens (truncates) the shard file and writes the meta record anchoring
  /// `loop_now` to the current wall clock. False if the file will not open.
  bool open(const std::string& path, SimTime loop_now = 0);
  [[nodiscard]] bool is_open() const;
  void flush();
  void close();

  /// A fresh process-unique id, never 0 (0 = "no parent").
  [[nodiscard]] std::uint64_t new_id();
  [[nodiscard]] std::uint32_t node_id() const { return node_id_; }

  void span(std::string_view name, std::string_view cat, std::uint64_t trace,
            std::uint64_t span_id, std::uint64_t parent, SimTime ts,
            SimTime dur, const SpanArgs& args = {});
  void instant(std::string_view name, std::string_view cat,
               std::uint64_t trace, std::uint64_t span_id,
               std::uint64_t parent, SimTime ts, const SpanArgs& args = {});
  void wire_send(std::uint32_t peer, std::uint64_t seq, int msg_type,
                 const TraceContext& ctx, SimTime ts, int attempt = 1);
  void wire_recv(std::uint32_t peer, std::uint64_t seq, int msg_type,
                 const TraceContext& ctx, SimTime ts);

  [[nodiscard]] std::uint64_t records_written() const;
  [[nodiscard]] std::uint64_t write_errors() const;

  /// Pull-mode counters (records written / write errors / shard open) under
  /// `labels`. Re-binding replaces; the destructor unbinds.
  void bind_metrics(MetricsRegistry& registry, Labels labels = {});
  void unbind_metrics();

 private:
  void emit_line(const std::string& line);

  std::uint32_t node_id_;
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::uint64_t next_id_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t errors_ = 0;
  MetricsRegistry* metrics_ = nullptr;
  MetricsRegistry::CollectorId metrics_collector_ = 0;
};

}  // namespace discs::telemetry
