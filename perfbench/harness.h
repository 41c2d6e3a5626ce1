// The benchmark's own arithmetic: per-client seed derivation, percentiles
// that refuse to exist without enough samples, an in-memory span log with
// self-time, and the one-line round report the driver script parses.
// Everything here is pure so selftest.cc can pin it down.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- seeds -----------------------------------------------------------------

/// Independent random streams a round draws from. Every stream of every
/// client is derived from the one `--seed`, so two seeds differ everywhere
/// and one seed repeats everywhere.
enum class Stream : uint64_t {
  kAtbMix = 1,  // which function each ATB call uses
  kAtbFill,     // payload bytes
  kAtbStart,    // each client's start offset inside the window
  kYcsbGen,     // YCSB op/key chooser
  kYcsbValue,   // YCSB load-phase values
  kFault,       // FaultPlan seed: crash schedule or fabric jitter
};

inline uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seed of `stream` for client `index` under run seed `seed`.
inline uint64_t derive_seed(uint64_t seed, Stream stream, uint64_t index) {
  const uint64_t s = splitmix64(seed) ^ static_cast<uint64_t>(stream);
  return splitmix64(splitmix64(s) ^ index);
}

// --- percentiles -----------------------------------------------------------

/// Fewest samples for which quantile `q` has at least ten samples beyond
/// it: 20 for p50, 1000 for p99.
inline size_t min_samples(double q) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

struct Quantile {
  double value = 0;
  size_t samples = 0;
};

/// Nearest-rank quantile of `v`, or nothing when `v` is too small for `q`.
inline std::optional<Quantile> quantile(std::vector<double> v, double q) {
  if (v.empty() || v.size() < min_samples(q)) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * double(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + long(rank - 1), v.end());
  return Quantile{v[rank - 1], v.size()};
}

// --- spans -----------------------------------------------------------------

inline int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Interval {
  int64_t begin = 0;
  int64_t end = 0;
};

/// `parent`'s length minus the part of it that the union of `children`
/// covers. Children may overlap each other and stick out of the parent.
inline int64_t self_time(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  int64_t covered = 0;
  int64_t reach = parent.begin;
  for (const Interval& c : children) {
    if (c.end <= c.begin) continue;
    int64_t from = std::max(c.begin, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return (parent.end - parent.begin) - covered;
}

struct Span {
  const char* name = "";
  uint64_t request = 0;
  int64_t parent = -1;  // index in the log, -1 for a root
  Interval virt;        // simulated ns
  Interval host;        // steady_clock ns
};

enum class Clock { kVirtual, kHost };

/// Spans of one round, kept in memory and read after the run ends.
class SpanLog {
 public:
  size_t open(const char* name, uint64_t request, int64_t parent,
              int64_t virt_now) {
    spans_.push_back(Span{name, request, parent, {virt_now, virt_now}, {}});
    spans_.back().host.begin = host_ns();
    return spans_.size() - 1;
  }
  void close(size_t i, int64_t virt_now) {
    spans_[i].host.end = host_ns();
    spans_[i].virt.end = virt_now;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span; returns false if the file fails.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,"
                   "\"parent\":%lld,\"virt\":[%lld,%lld],"
                   "\"host\":[%lld,%lld]}\n",
                   i, s.name, static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.virt.begin),
                   static_cast<long long>(s.virt.end),
                   static_cast<long long>(s.host.begin),
                   static_cast<long long>(s.host.end));
    }
    return std::fclose(f) == 0;
  }

  /// Self time of every span on one clock, index-aligned with spans().
  std::vector<int64_t> self_times(Clock clock) const {
    auto pick = [clock](const Span& s) {
      return clock == Clock::kVirtual ? s.virt : s.host;
    };
    std::vector<std::vector<Interval>> kids(spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0) kids[size_t(s.parent)].push_back(pick(s));
    std::vector<int64_t> out(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
      out[i] = self_time(pick(spans_[i]), std::move(kids[i]));
    return out;
  }

 private:
  std::vector<Span> spans_;
};

// --- round report ----------------------------------------------------------

/// One named figure of a round. `exact` figures come from the virtual clock
/// or from counters and must repeat byte-for-byte for a seed; the others are
/// host measurements.
struct Figure {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  bool exact = true;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RoundReport {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Figure> figures;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, std::string>> labels;

  void add(std::string name, double value, std::string unit,
           uint64_t samples, bool exact = true) {
    figures.push_back(
        Figure{std::move(name), value, std::move(unit), samples, exact});
  }
  /// Adds a quantile figure, or a failed check when there are too few
  /// samples to state it.
  void add_quantile(const std::string& name, const std::vector<double>& v,
                    double q, const std::string& unit) {
    if (std::optional<Quantile> r = quantile(v, q)) {
      add(name, r->value, unit, r->samples);
    } else {
      check(name + ".enough_samples", false,
            std::to_string(v.size()) + " < " + std::to_string(min_samples(q)));
    }
  }
  void check(std::string name, bool ok, std::string detail = "") {
    checks.push_back(Check{std::move(name), ok, std::move(detail)});
  }

  std::string json() const;
};

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string RoundReport::json() const {
  std::string j = "{\"workload\":" + json_string(workload) +
                  ",\"seed\":" + std::to_string(seed) +
                  ",\"traced\":" + (traced ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(attempted) +
                  ",\"failed\":" + std::to_string(failed) + ",\"figures\":[";
  for (size_t i = 0; i < figures.size(); ++i) {
    const Figure& f = figures[i];
    j += (i ? "," : "");
    j += "{\"name\":" + json_string(f.name) + ",\"value\":" +
         json_number(f.value) + ",\"unit\":" + json_string(f.unit) +
         ",\"samples\":" + std::to_string(f.samples) +
         ",\"exact\":" + (f.exact ? "true" : "false") + "}";
  }
  j += "],\"checks\":[";
  for (size_t i = 0; i < checks.size(); ++i) {
    const Check& c = checks[i];
    j += (i ? "," : "");
    j += "{\"name\":" + json_string(c.name) +
         ",\"ok\":" + (c.ok ? "true" : "false") +
         ",\"detail\":" + json_string(c.detail) + "}";
  }
  j += "],\"labels\":{";
  for (size_t i = 0; i < labels.size(); ++i) {
    j += (i ? "," : "");
    j += json_string(labels[i].first) + ":" + json_string(labels[i].second);
  }
  return j + "}}";
}

}  // namespace perfbench
