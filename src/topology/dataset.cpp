#include "topology/dataset.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "dataplane/tables.hpp"

namespace discs {
namespace {

// Splits a CAIDA origin field ("13335", "4788_65001", "2497,7660") into AS
// numbers. '_' separates MOAS origins, ',' separates AS-set members; the
// paper treats both as "multiple ASes" for even space splitting.
bool parse_origins(std::string_view field, std::vector<AsNumber>& out) {
  out.clear();
  AsNumber current = 0;
  bool have_digit = false;
  for (char c : field) {
    if (c >= '0' && c <= '9') {
      current = current * 10 + static_cast<AsNumber>(c - '0');
      have_digit = true;
    } else if (c == '_' || c == ',') {
      if (!have_digit) return false;
      out.push_back(current);
      current = 0;
      have_digit = false;
    } else if (c == '{' || c == '}') {
      continue;  // some snapshots brace AS sets
    } else {
      return false;
    }
  }
  if (!have_digit) return false;
  out.push_back(current);
  return true;
}

}  // namespace

struct InternetDataset::SnapshotCache {
  std::once_flag built;
  Pfx2AsSnapshot snapshot;
};

InternetDataset::InternetDataset(std::vector<PrefixOrigin> entries,
                                 std::vector<PrefixOrigin6> entries6)
    : snapshot_cache_(std::make_shared<SnapshotCache>()) {
  if (entries.empty()) {
    throw std::invalid_argument("InternetDataset: empty prefix table");
  }

  // IPv6 registry: merged like the v4 table but without space accounting
  // (the paper's r_j quantities come from the IPv4 snapshot only).
  {
    std::map<Prefix6, std::vector<AsNumber>> merged6;
    for (auto& e : entries6) {
      auto& origins = merged6[e.prefix];
      for (AsNumber as : e.origins) {
        if (std::find(origins.begin(), origins.end(), as) == origins.end()) {
          origins.push_back(as);
        }
      }
    }
    entries6_.reserve(merged6.size());
    for (auto& [prefix, origins] : merged6) {
      const auto index = static_cast<std::uint32_t>(entries6_.size());
      for (AsNumber as : origins) entries6_of_as_[as].push_back(index);
      pfx2as6_.insert(prefix, index);
      entries6_.push_back({prefix, std::move(origins)});
    }
  }

  // Merge duplicate prefixes (same base address + length) by unioning their
  // origin lists, mirroring how MOAS shows up across collectors.
  std::map<Prefix4, std::vector<AsNumber>> merged;
  for (auto& e : entries) {
    auto& origins = merged[e.prefix];
    for (AsNumber as : e.origins) {
      if (std::find(origins.begin(), origins.end(), as) == origins.end()) {
        origins.push_back(as);
      }
    }
  }
  entries_.reserve(merged.size());
  for (auto& [prefix, origins] : merged) {
    entries_.push_back({prefix, std::move(origins)});
  }

  // entries_ is now sorted by (address, length) thanks to Prefix4's ordering,
  // which places a covering prefix immediately before the prefixes nested in
  // it. Compute each prefix's effective space: its size minus the sizes of
  // its direct children (more-specific routed prefixes carve space out).
  std::vector<double> effective(entries_.size());
  std::vector<std::size_t> stack;  // indices of open ancestors
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    effective[i] = static_cast<double>(entries_[i].prefix.size());
    while (!stack.empty() &&
           !entries_[stack.back()].prefix.covers(entries_[i].prefix)) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      // Direct parent loses this child's full size exactly once; nested
      // grandchildren subtract from the child, not from here.
      effective[stack.back()] -= static_cast<double>(entries_[i].prefix.size());
    }
    stack.push_back(i);
  }

  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& origins = entries_[i].origins;
    const double share = effective[i] / static_cast<double>(origins.size());
    for (AsNumber as : origins) {
      space_[as] += share;
      entries_of_as_[as].push_back(static_cast<std::uint32_t>(i));
    }
    pfx2as_.insert(entries_[i].prefix, static_cast<std::uint32_t>(i));
  }

  // Zero-space manipulation (§VI-A2): an AS fully shadowed by more-specific
  // prefixes still counts as owning one address.
  as_numbers_.reserve(space_.size());
  for (auto& [as, space] : space_) {
    if (space < 1.0) space = 1.0;
    total_space_ += space;
    as_numbers_.push_back(as);
  }
  std::sort(as_numbers_.begin(), as_numbers_.end());
}

Result<InternetDataset> InternetDataset::load_caida(std::istream& in) {
  std::vector<PrefixOrigin> entries;
  std::string line;
  std::size_t line_no = 0;
  std::vector<AsNumber> origins;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::string_view view(line);
    const auto tab1 = view.find('\t');
    const auto tab2 = tab1 == std::string_view::npos
                          ? std::string_view::npos
                          : view.find('\t', tab1 + 1);
    auto fail = [&](std::string_view why) -> Result<InternetDataset> {
      return Error{"dataset.parse", "line " + std::to_string(line_no) + ": " +
                                        std::string(why)};
    };
    if (tab2 == std::string_view::npos) return fail("expected 3 tab-separated fields");
    const auto addr = Ipv4Address::parse(view.substr(0, tab1));
    if (!addr) return fail("bad address");
    unsigned length = 0;
    for (char c : view.substr(tab1 + 1, tab2 - tab1 - 1)) {
      if (c < '0' || c > '9') return fail("bad prefix length");
      length = length * 10 + static_cast<unsigned>(c - '0');
      if (length > 32) return fail("prefix length > 32");
    }
    if (!parse_origins(view.substr(tab2 + 1), origins)) return fail("bad origin field");
    entries.push_back({Prefix4(*addr, length), origins});
  }
  if (entries.empty()) {
    return Error{"dataset.parse", "no entries in input"};
  }
  return InternetDataset(std::move(entries));
}

Result<InternetDataset> InternetDataset::load_caida_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Error{"dataset.io", "cannot open " + path};
  }
  return load_caida(in);
}

void InternetDataset::write_caida(std::ostream& out) const {
  for (const auto& e : entries_) {
    out << e.prefix.address().to_string() << '\t' << e.prefix.length() << '\t';
    for (std::size_t i = 0; i < e.origins.size(); ++i) {
      if (i > 0) out << '_';
      out << e.origins[i];
    }
    out << '\n';
  }
}

Result<std::vector<PrefixOrigin6>> InternetDataset::load_caida6(
    std::istream& in) {
  std::vector<PrefixOrigin6> entries;
  std::string line;
  std::size_t line_no = 0;
  std::vector<AsNumber> origins;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::string_view view(line);
    const auto tab1 = view.find('\t');
    const auto tab2 = tab1 == std::string_view::npos
                          ? std::string_view::npos
                          : view.find('\t', tab1 + 1);
    auto fail = [&](std::string_view why) -> Result<std::vector<PrefixOrigin6>> {
      return Error{"dataset6.parse", "line " + std::to_string(line_no) + ": " +
                                         std::string(why)};
    };
    if (tab2 == std::string_view::npos) return fail("expected 3 tab-separated fields");
    const auto addr = Ipv6Address::parse(view.substr(0, tab1));
    if (!addr) return fail("bad address");
    unsigned length = 0;
    for (char c : view.substr(tab1 + 1, tab2 - tab1 - 1)) {
      if (c < '0' || c > '9') return fail("bad prefix length");
      length = length * 10 + static_cast<unsigned>(c - '0');
      if (length > 128) return fail("prefix length > 128");
    }
    if (!parse_origins(view.substr(tab2 + 1), origins)) return fail("bad origin field");
    entries.push_back({Prefix6(*addr, length), origins});
  }
  return entries;
}

void InternetDataset::write_caida6(std::ostream& out) const {
  for (const auto& e : entries6_) {
    out << e.prefix.address().to_string() << '\t' << e.prefix.length() << '\t';
    for (std::size_t i = 0; i < e.origins.size(); ++i) {
      if (i > 0) out << '_';
      out << e.origins[i];
    }
    out << '\n';
  }
}

double InternetDataset::address_space(AsNumber as) const {
  const auto it = space_.find(as);
  return it == space_.end() ? 0.0 : it->second;
}

double InternetDataset::ratio(AsNumber as) const {
  return address_space(as) / total_space_;
}

AsNumber InternetDataset::origin_of(Ipv4Address addr) const {
  const auto idx = pfx2as_.lookup(addr);
  return idx ? entries_[*idx].origins.front() : kNoAs;
}

std::vector<AsNumber> InternetDataset::origins_of(Ipv4Address addr) const {
  const auto idx = pfx2as_.lookup(addr);
  return idx ? entries_[*idx].origins : std::vector<AsNumber>{};
}

bool InternetDataset::owns(AsNumber as, const Prefix4& prefix) const {
  // The longest routed prefix covering `prefix.address()` that also covers
  // the whole of `prefix` must list `as`. Walking matches from the LPM side
  // is equivalent to checking the LPM entry of the base address, provided
  // that entry covers the queried prefix end to end.
  const auto idx = pfx2as_.lookup(prefix.address());
  if (!idx) return false;
  const auto& entry = entries_[*idx];
  if (!entry.prefix.covers(prefix)) return false;
  return std::find(entry.origins.begin(), entry.origins.end(), as) !=
         entry.origins.end();
}

std::vector<Prefix4> InternetDataset::prefixes_of(AsNumber as) const {
  std::vector<Prefix4> result;
  const auto it = entries_of_as_.find(as);
  if (it == entries_of_as_.end()) return result;
  result.reserve(it->second.size());
  for (std::uint32_t index : it->second) {
    result.push_back(entries_[index].prefix);
  }
  return result;
}

AsNumber InternetDataset::origin_of(const Ipv6Address& addr) const {
  const auto idx = pfx2as6_.lookup(addr);
  return idx ? entries6_[*idx].origins.front() : kNoAs;
}

bool InternetDataset::owns(AsNumber as, const Prefix6& prefix) const {
  const auto idx = pfx2as6_.lookup(prefix.address());
  if (!idx) return false;
  const auto& entry = entries6_[*idx];
  if (!entry.prefix.covers(prefix)) return false;
  return std::find(entry.origins.begin(), entry.origins.end(), as) !=
         entry.origins.end();
}

std::vector<Prefix6> InternetDataset::prefixes6_of(AsNumber as) const {
  std::vector<Prefix6> result;
  const auto it = entries6_of_as_.find(as);
  if (it == entries6_of_as_.end()) return result;
  result.reserve(it->second.size());
  for (std::uint32_t index : it->second) {
    result.push_back(entries6_[index].prefix);
  }
  return result;
}

Pfx2AsSnapshot InternetDataset::pfx2as_snapshot() const {
  SnapshotCache& cache = *snapshot_cache_;
  std::call_once(cache.built, [&] {
    Lpm4<AsNumber> v4;
    for (const PrefixOrigin& e : entries_) v4.insert(e.prefix, e.origins.front());
    Lpm6<AsNumber> v6;
    for (const PrefixOrigin6& e : entries6_) {
      v6.insert(e.prefix, e.origins.front());
    }
    cache.snapshot = Pfx2AsTable::compile_snapshot(std::move(v4), std::move(v6));
  });
  return cache.snapshot;
}

std::vector<AsNumber> InternetDataset::ases_by_space_desc() const {
  std::vector<AsNumber> order = as_numbers_;
  std::stable_sort(order.begin(), order.end(), [this](AsNumber a, AsNumber b) {
    const double sa = address_space(a);
    const double sb = address_space(b);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  return order;
}

}  // namespace discs
