// Offline half of the distributed tracer: loads the per-node JSONL trace
// shards SpanTracer writes, aligns the nodes' independent EventLoop clocks
// onto one timeline, and stitches everything into a single Chrome
// trace_event JSON file (chrome://tracing, Perfetto).
//
// Clock alignment is two-staged. The meta record of each shard anchors its
// loop clock to the wall clock (coarse: wall clocks of co-located processes
// agree to milliseconds, and the merge only needs a common zero). On top of
// that, every matched send/recv record pair — same (sender, receiver, seq,
// trace, span) — gives a one-way delay sample in local clocks; the NTP
// minimum-filter over both directions of a node pair cancels the symmetric
// part of the network delay and yields the relative skew of the two loop
// clocks, propagated through the pair graph by BFS from the lowest AS.
// Nodes that never exchanged a traced message keep their wall-clock
// baseline.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace discs::telemetry {

/// One parsed JSONL shard record. Unused fields stay zero/empty; ids are
/// already decoded from their "0x..." wire form.
struct ShardRecord {
  enum class Kind : std::uint8_t { kMeta, kSpan, kInstant, kSend, kRecv };
  Kind kind = Kind::kMeta;
  std::string name;
  std::string cat;
  std::uint64_t as = 0;
  std::uint64_t pid = 0;
  std::uint64_t loop_us = 0;  // meta only: the clock-anchor pair
  std::uint64_t wall_us = 0;
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  std::uint64_t peer = 0;  // send/recv: the other node
  std::uint64_t seq = 0;
  std::uint64_t msg = 0;
  std::uint64_t attempt = 0;
  std::vector<std::pair<std::string, std::uint64_t>> args;
};

/// One node's shard: its meta anchor plus every well-formed record.
struct TraceShard {
  std::string path;
  std::uint32_t as = 0;
  bool has_meta = false;
  std::int64_t wall_minus_loop_us = 0;  // meta: wall_us - loop_us
  std::uint64_t skipped_lines = 0;      // unparsable (e.g. SIGKILL-torn tail)
  std::vector<ShardRecord> records;
};

/// Parses one shard line. False when the line is not a well-formed record
/// (corrupt tails are expected from killed writers — callers skip them).
bool parse_shard_record(const std::string& line, ShardRecord& out);

/// Loads a shard file; false only when the file cannot be opened. The shard
/// AS is taken from the meta record (or the first record carrying one).
bool load_trace_shard(const std::string& path, TraceShard& out);

/// Per-AS clock offsets: local loop ts + offset = merged-timeline ts. The
/// reference node (lowest AS with records) gets offset 0.
std::map<std::uint32_t, std::int64_t> align_clocks(
    const std::vector<TraceShard>& shards);

/// Renders the shards onto one timeline as a Chrome trace_event JSON
/// document: per-node process metadata, X/i events for spans/instants, and
/// s/f flow arrows for every matched send/recv pair (arrival clamped to
/// never precede departure; the whole timeline normalized to start at 0).
std::string merge_to_chrome_trace(
    const std::vector<TraceShard>& shards,
    const std::map<std::uint32_t, std::int64_t>& offsets);

/// The whole path above in one call, for in-process harnesses that trace
/// through SpanTracers: loads `shard_paths`, aligns their clocks and writes
/// the merged Chrome trace to `out_path` (noted on stdout). False, with a
/// note, when a shard will not open or the file cannot be written.
bool write_chrome_trace(const std::vector<std::string>& shard_paths,
                        const std::string& out_path);

/// Per-trace rollup used by the CLI to verify a run produced a complete
/// causal tree (e.g. one invocation spanning all five demo nodes).
struct TraceSummary {
  std::uint64_t trace_id = 0;
  std::set<std::uint32_t> nodes;  // every AS that contributed a record
  std::string root_name;          // name of the parent==0 span ("" if none)
  std::size_t spans = 0;          // span + instant records
  std::size_t filter_installs = 0;
};
std::vector<TraceSummary> summarize_traces(
    const std::vector<TraceShard>& shards);

}  // namespace discs::telemetry
