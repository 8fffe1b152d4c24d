#include "telemetry/trace_merge.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>

#include "telemetry/export.hpp"

namespace discs::telemetry {
namespace {

/// Finds the raw value token following `"key":` at the top level of a flat
/// record line. Good enough for the fixed vocabulary SpanTracer emits: the
/// only nested object is "args", whose keys are protocol arg names that
/// never collide with the top-level keys we query.
bool find_raw(const std::string& line, const char* key, std::string& out) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t i = at + needle.size();
  if (i >= line.size()) return false;
  if (line[i] == '"') {
    // String value: scan to the closing quote, honoring escapes.
    std::size_t j = i + 1;
    while (j < line.size() && line[j] != '"') {
      if (line[j] == '\\') ++j;
      ++j;
    }
    if (j >= line.size()) return false;
    out = line.substr(i, j - i + 1);
    return true;
  }
  std::size_t j = i;
  while (j < line.size() && line[j] != ',' && line[j] != '}') ++j;
  out = line.substr(i, j - i);
  return !out.empty();
}

std::string unquote(const std::string& token) {
  if (token.size() < 2 || token.front() != '"') return token;
  std::string out;
  for (std::size_t i = 1; i + 1 < token.size(); ++i) {
    if (token[i] == '\\' && i + 2 < token.size()) ++i;
    out += token[i];
  }
  return out;
}

std::uint64_t parse_u64(const std::string& token) {
  const std::string body = unquote(token);
  return std::strtoull(body.c_str(), nullptr, 0);  // base 0: "0x..." or dec
}

bool get_u64(const std::string& line, const char* key, std::uint64_t& out) {
  std::string raw;
  if (!find_raw(line, key, raw)) return false;
  out = parse_u64(raw);
  return true;
}

bool get_string(const std::string& line, const char* key, std::string& out) {
  std::string raw;
  if (!find_raw(line, key, raw)) return false;
  out = unquote(raw);
  return true;
}

void parse_args(const std::string& line,
                std::vector<std::pair<std::string, std::uint64_t>>& out) {
  const std::size_t at = line.find("\"args\":{");
  if (at == std::string::npos) return;
  std::size_t i = at + 8;
  while (i < line.size() && line[i] != '}') {
    if (line[i] != '"') {
      ++i;
      continue;
    }
    const std::size_t key_end = line.find('"', i + 1);
    if (key_end == std::string::npos) return;
    const std::string key = line.substr(i + 1, key_end - i - 1);
    std::size_t v = key_end + 1;
    if (v >= line.size() || line[v] != ':') return;
    ++v;
    std::size_t ve = v;
    while (ve < line.size() && line[ve] != ',' && line[ve] != '}') ++ve;
    out.emplace_back(key, parse_u64(line.substr(v, ve - v)));
    i = ve;
  }
}

void append_json_escaped(std::string& out, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

void append_hex(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, v);
  out += buf;
}

/// Identifies one logical traced message for send/recv pairing: direction
/// plus the (seq, trace, span) triple both sides recorded.
struct WireKey {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::uint64_t seq = 0;
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  auto operator<=>(const WireKey&) const = default;
};

struct WirePair {
  std::uint64_t send_ts = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t recv_ts = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t msg = 0;
  [[nodiscard]] bool complete() const {
    return send_ts != std::numeric_limits<std::uint64_t>::max() &&
           recv_ts != std::numeric_limits<std::uint64_t>::max();
  }
};

/// Collects, per WireKey, the earliest send and earliest recv timestamp
/// (local clocks). The earliest pair is both the flow arrow the merged
/// trace draws and the delay sample clock alignment filters over.
std::map<WireKey, WirePair> collect_pairs(
    const std::vector<TraceShard>& shards) {
  std::map<WireKey, WirePair> pairs;
  for (const TraceShard& shard : shards) {
    for (const ShardRecord& r : shard.records) {
      if (r.kind == ShardRecord::Kind::kSend) {
        WirePair& p = pairs[{r.as, r.peer, r.seq, r.trace, r.span}];
        p.send_ts = std::min(p.send_ts, r.ts);
        p.msg = r.msg;
      } else if (r.kind == ShardRecord::Kind::kRecv) {
        WirePair& p = pairs[{r.peer, r.as, r.seq, r.trace, r.span}];
        p.recv_ts = std::min(p.recv_ts, r.ts);
        p.msg = r.msg;
      }
    }
  }
  return pairs;
}

}  // namespace

bool parse_shard_record(const std::string& line, ShardRecord& out) {
  out = ShardRecord{};
  // A torn tail line (killed writer) lacks the closing brace — reject it
  // rather than decode half a record.
  const std::size_t open = line.find('{');
  if (open == std::string::npos || line.rfind('}') == std::string::npos) {
    return false;
  }
  std::string type;
  if (!get_string(line, "type", type)) return false;
  if (type == "meta") {
    out.kind = ShardRecord::Kind::kMeta;
  } else if (type == "span") {
    out.kind = ShardRecord::Kind::kSpan;
  } else if (type == "instant") {
    out.kind = ShardRecord::Kind::kInstant;
  } else if (type == "send") {
    out.kind = ShardRecord::Kind::kSend;
  } else if (type == "recv") {
    out.kind = ShardRecord::Kind::kRecv;
  } else {
    return false;
  }
  if (!get_u64(line, "as", out.as)) return false;
  get_string(line, "name", out.name);
  get_string(line, "cat", out.cat);
  get_u64(line, "pid", out.pid);
  get_u64(line, "loop_us", out.loop_us);
  get_u64(line, "wall_us", out.wall_us);
  get_u64(line, "trace", out.trace);
  get_u64(line, "span", out.span);
  get_u64(line, "parent", out.parent);
  get_u64(line, "ts", out.ts);
  get_u64(line, "dur", out.dur);
  get_u64(line, "peer", out.peer);
  get_u64(line, "seq", out.seq);
  get_u64(line, "msg", out.msg);
  get_u64(line, "attempt", out.attempt);
  parse_args(line, out.args);
  return true;
}

bool load_trace_shard(const std::string& path, TraceShard& out) {
  out = TraceShard{};
  out.path = path;
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ShardRecord record;
    if (!parse_shard_record(line, record)) {
      ++out.skipped_lines;
      continue;
    }
    if (record.kind == ShardRecord::Kind::kMeta) {
      out.as = static_cast<std::uint32_t>(record.as);
      out.has_meta = true;
      out.wall_minus_loop_us = static_cast<std::int64_t>(record.wall_us) -
                               static_cast<std::int64_t>(record.loop_us);
    } else if (out.as == 0) {
      out.as = static_cast<std::uint32_t>(record.as);
    }
    out.records.push_back(std::move(record));
  }
  return true;
}

std::map<std::uint32_t, std::int64_t> align_clocks(
    const std::vector<TraceShard>& shards) {
  std::map<std::uint32_t, std::int64_t> offsets;
  if (shards.empty()) return offsets;

  // Stage 1: wall-clock baseline. global = loop_n + (anchor_n - anchor_r).
  std::map<std::uint32_t, std::int64_t> anchor;
  for (const TraceShard& s : shards) {
    if (s.has_meta) anchor[s.as] = s.wall_minus_loop_us;
  }
  std::uint32_t reference = 0;
  for (const TraceShard& s : shards) {
    if (s.records.empty()) continue;
    if (reference == 0 || s.as < reference) reference = s.as;
  }
  if (reference == 0) return offsets;
  const std::int64_t ref_anchor =
      anchor.contains(reference) ? anchor.at(reference) : 0;
  for (const TraceShard& s : shards) {
    const std::int64_t a = anchor.contains(s.as) ? anchor.at(s.as) : ref_anchor;
    offsets[s.as] = a - ref_anchor;
  }

  // Stage 2: refine with matched send/recv pairs. For nodes a, b with
  // offsets o_a, o_b (local + offset = global) and the minimum observed
  // one-way deltas d_ab = min(recv_b - send_a), d_ba = min(recv_a - send_b)
  // in LOCAL clocks: d_ab = delay_min + o_a - o_b and d_ba = delay_min +
  // o_b - o_a, so o_b = o_a - (d_ab - d_ba) / 2 — the symmetric part of the
  // delay cancels exactly. Propagate from the reference by BFS so nodes
  // only indirectly connected still get pairwise-refined offsets.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> min_delta;
  for (const auto& [key, pair] : collect_pairs(shards)) {
    if (!pair.complete()) continue;
    const auto edge = std::make_pair(static_cast<std::uint32_t>(key.from),
                                     static_cast<std::uint32_t>(key.to));
    const std::int64_t delta = static_cast<std::int64_t>(pair.recv_ts) -
                               static_cast<std::int64_t>(pair.send_ts);
    const auto it = min_delta.find(edge);
    if (it == min_delta.end() || delta < it->second) min_delta[edge] = delta;
  }

  std::set<std::uint32_t> refined{reference};
  std::deque<std::uint32_t> frontier{reference};
  while (!frontier.empty()) {
    const std::uint32_t a = frontier.front();
    frontier.pop_front();
    for (const auto& [edge, d_ab] : min_delta) {
      if (edge.first != a) continue;
      const std::uint32_t b = edge.second;
      if (refined.contains(b) || !offsets.contains(b)) continue;
      const auto back = min_delta.find({b, a});
      if (back == min_delta.end()) continue;  // need both directions
      offsets[b] = offsets[a] - (d_ab - back->second) / 2;
      refined.insert(b);
      frontier.push_back(b);
    }
  }
  return offsets;
}

std::string merge_to_chrome_trace(
    const std::vector<TraceShard>& shards,
    const std::map<std::uint32_t, std::int64_t>& offsets) {
  const auto global = [&](std::uint32_t as, std::uint64_t ts) {
    const auto it = offsets.find(as);
    return static_cast<std::int64_t>(ts) +
           (it == offsets.end() ? 0 : it->second);
  };

  // First pass: the minimum merged timestamp, so the trace starts at 0 and
  // viewers do not have to scroll past an epoch of emptiness.
  std::int64_t min_ts = std::numeric_limits<std::int64_t>::max();
  for (const TraceShard& s : shards) {
    for (const ShardRecord& r : s.records) {
      if (r.kind == ShardRecord::Kind::kMeta) continue;
      min_ts = std::min(min_ts, global(s.as, r.ts));
    }
  }
  if (min_ts == std::numeric_limits<std::int64_t>::max()) min_ts = 0;

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) out += ',';
    first = false;
    out += event;
  };
  const auto id_arg = [&](std::string& e, const char* key, std::uint64_t v) {
    e += ",\"";
    e += key;
    e += "\":\"";
    append_hex(e, v);
    e += '"';
  };

  for (const TraceShard& s : shards) {
    std::string meta = "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    meta += std::to_string(s.as);
    meta += ",\"args\":{\"name\":\"AS ";
    meta += std::to_string(s.as);
    meta += "\"}}";
    emit(meta);
  }

  for (const TraceShard& s : shards) {
    for (const ShardRecord& r : s.records) {
      if (r.kind != ShardRecord::Kind::kSpan &&
          r.kind != ShardRecord::Kind::kInstant) {
        continue;
      }
      std::string e = "{\"ph\":\"";
      e += r.kind == ShardRecord::Kind::kSpan ? 'X' : 'i';
      e += "\",\"name\":\"";
      append_json_escaped(e, r.name);
      e += "\",\"cat\":\"";
      append_json_escaped(e, r.cat.empty() ? "control" : r.cat);
      e += "\",\"pid\":" + std::to_string(r.as) + ",\"tid\":0,\"ts\":";
      e += std::to_string(global(s.as, r.ts) - min_ts);
      if (r.kind == ShardRecord::Kind::kSpan) {
        e += ",\"dur\":" + std::to_string(r.dur);
      } else {
        e += ",\"s\":\"t\"";
      }
      e += ",\"args\":{";
      bool first_arg = true;
      const auto arg = [&](const std::string& k, const std::string& v,
                           bool quoted) {
        if (!first_arg) e += ',';
        first_arg = false;
        e += '"';
        append_json_escaped(e, k);
        e += "\":";
        if (quoted) e += '"';
        e += v;
        if (quoted) e += '"';
      };
      std::string hex;
      hex.clear();
      append_hex(hex, r.trace);
      arg("trace", hex, true);
      hex.clear();
      append_hex(hex, r.span);
      arg("span", hex, true);
      hex.clear();
      append_hex(hex, r.parent);
      arg("parent", hex, true);
      for (const auto& [k, v] : r.args) arg(k, std::to_string(v), false);
      e += "}}";
      emit(e);
    }
  }

  // Flow arrows for every completed send/recv pair. Chrome requires the
  // finish step at or after the start step; a refined-but-imperfect clock
  // alignment can put an arrival a few µs "before" its departure, so clamp.
  std::uint64_t flow_id = 0;
  for (const auto& [key, pair] : collect_pairs(shards)) {
    if (!pair.complete()) continue;
    ++flow_id;
    const std::int64_t start =
        global(static_cast<std::uint32_t>(key.from), pair.send_ts) - min_ts;
    const std::int64_t finish = std::max(
        start,
        global(static_cast<std::uint32_t>(key.to), pair.recv_ts) - min_ts);
    std::string name = "msg" + std::to_string(pair.msg);
    std::string s_ev = "{\"ph\":\"s\",\"name\":\"" + name +
                       "\",\"cat\":\"wire\",\"pid\":" +
                       std::to_string(key.from) + ",\"tid\":0,\"ts\":" +
                       std::to_string(start) +
                       ",\"id\":" + std::to_string(flow_id);
    id_arg(s_ev, "id2", key.span);
    s_ev += "}";
    emit(s_ev);
    std::string f_ev = "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"" + name +
                       "\",\"cat\":\"wire\",\"pid\":" +
                       std::to_string(key.to) + ",\"tid\":0,\"ts\":" +
                       std::to_string(finish) +
                       ",\"id\":" + std::to_string(flow_id) + "}";
    emit(f_ev);
  }

  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool write_chrome_trace(const std::vector<std::string>& shard_paths,
                        const std::string& out_path) {
  std::vector<TraceShard> shards(shard_paths.size());
  for (std::size_t i = 0; i < shard_paths.size(); ++i) {
    if (!load_trace_shard(shard_paths[i], shards[i])) {
      std::fprintf(stderr, "trace: cannot open shard %s\n",
                   shard_paths[i].c_str());
      return false;
    }
  }
  if (!write_text_file(out_path,
                       merge_to_chrome_trace(shards, align_clocks(shards)))) {
    return false;
  }
  std::printf("  # trace: wrote %s (%zu shards)\n", out_path.c_str(),
              shards.size());
  return true;
}

std::vector<TraceSummary> summarize_traces(
    const std::vector<TraceShard>& shards) {
  std::map<std::uint64_t, TraceSummary> by_trace;
  for (const TraceShard& s : shards) {
    for (const ShardRecord& r : s.records) {
      if (r.kind == ShardRecord::Kind::kMeta || r.trace == 0) continue;
      TraceSummary& summary = by_trace[r.trace];
      summary.trace_id = r.trace;
      summary.nodes.insert(static_cast<std::uint32_t>(r.as));
      if (r.kind == ShardRecord::Kind::kSpan ||
          r.kind == ShardRecord::Kind::kInstant) {
        ++summary.spans;
        if (r.kind == ShardRecord::Kind::kSpan && r.parent == 0) {
          summary.root_name = r.name;
        }
        if (r.name == "filter_install") ++summary.filter_installs;
      }
    }
  }
  std::vector<TraceSummary> out;
  out.reserve(by_trace.size());
  for (auto& [id, summary] : by_trace) out.push_back(std::move(summary));
  return out;
}

}  // namespace discs::telemetry
