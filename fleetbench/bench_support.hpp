// Support code for the fleet benchmark program: clocks, order statistics,
// the in-memory span recorder, and the host-parallelism probe.
//
// Everything here times the benchmark's own calls into the program; no
// program code is instrumented.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256.hpp"

namespace fleetbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Process CPU time (user + system, every thread) in milliseconds.
inline double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Peak resident set of this process in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated percentile (0..100); 0 for an empty sample.
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = (p / 100.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

inline double median(const std::vector<double>& xs) {
  return percentile(xs, 50.0);
}

// ---------------------------------------------------------------- spans

/// One timed call into a layer: name, start and end (µs since the
/// recorder was created), the enclosing span, and the poll or cycle the
/// call belongs to.
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;  // index into the recorder's span list, -1 for a root
  std::uint64_t op_id = 0;
};

/// Keeps every span in memory; written out once, when the run ends. A
/// disabled recorder records nothing and costs one branch per scope.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Start or stop recording. Only between scopes: an open scope closes
  /// the span it opened either way.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name, std::uint64_t op_id)
        : rec_(rec->enabled_ ? rec : nullptr) {
      if (rec_ != nullptr) index_ = rec_->open(name, op_id);
    }
    ~Scope() {
      if (rec_ != nullptr) rec_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  Scope scope(const char* name, std::uint64_t op_id) {
    return Scope(this, name, op_id);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: duration minus the time its direct children cover.
  std::vector<double> self_times_us() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_us - spans_[i].start_us;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end_us - s.start_us;
    }
    return self;
  }

  /// Self times grouped by span name.
  std::map<std::string, std::vector<double>> self_by_name() const {
    std::map<std::string, std::vector<double>> out;
    const std::vector<double> self = self_times_us();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(self[i]);
    }
    return out;
  }

  /// Full durations grouped by span name.
  std::map<std::string, std::vector<double>> duration_by_name() const {
    std::map<std::string, std::vector<double>> out;
    for (const Span& s : spans_) {
      out[s.name].push_back(s.end_us - s.start_us);
    }
    return out;
  }

  /// One JSON object per line.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                   "\"end_us\":%.3f,\"parent\":%d,\"op\":%llu}\n",
                   i, s.name.c_str(), s.start_us, s.end_us, s.parent,
                   static_cast<unsigned long long>(s.op_id));
    }
    return std::fclose(f) == 0;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  int open(const char* name, std::uint64_t op_id) {
    Span s;
    s.name = name;
    s.op_id = op_id;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_us = now_us();
    open_.pop_back();
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ----------------------------------------------------------------- host

struct HostRecord {
  unsigned nproc = 0;
  std::string sha256_backend;
  /// Wall time of k busy threads over the wall time of one (same work
  /// per thread): 1.0 means k truly parallel cores.
  double busy2_ratio = 0;
  double busy4_ratio = 0;
};

/// Fixed CPU work: hash a small buffer repeatedly.
inline void busy_work(std::uint64_t* sink) {
  cia::crypto::Digest d{};
  for (int i = 0; i < 40000; ++i) {
    d = cia::crypto::sha256_pair(d.data(), d.size(), d.data(), d.size());
  }
  *sink = d[0];
}

inline double busy_wall_ms(unsigned threads) {
  std::vector<std::uint64_t> sinks(threads);
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back(busy_work, &sinks[t]);
  }
  for (std::thread& t : pool) t.join();
  return ms_since(start);
}

/// A fixed CPU-and-memory workload that calls no program code: chase a
/// pointer cycle through a 2 MiB table and fold every step into a
/// multiply chain. Its wall time tracks how fast this host runs the
/// benchmark right now.
class ReferenceWork {
 public:
  ReferenceWork() : table_(kSlots) {
    // One cycle through every slot (Sattolo's shuffle), fixed seed.
    for (std::size_t i = 0; i < kSlots; ++i) table_[i] = i;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = kSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(table_[i], table_[x % i]);
    }
  }

  /// Wall time of `threads` copies of the work run side by side, ms.
  double run_ms(unsigned threads) const {
    std::vector<std::uint64_t> sinks(threads);
    const auto start = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([this, t, &sinks] { sinks[t] = chase(t); });
    }
    for (std::thread& t : pool) t.join();
    return ms_since(start);
  }

 private:
  static constexpr std::size_t kSlots = std::size_t{1} << 18;  // 2 MiB
  static constexpr int kSteps = 100000;

  std::uint64_t chase(std::uint64_t start) const {
    std::uint64_t i = start % kSlots, acc = 1;
    for (int s = 0; s < kSteps; ++s) {
      i = table_[i];
      acc = acc * 0x2545f4914f6cdd1dull + i;
    }
    return acc;
  }

  std::vector<std::uint64_t> table_;
};

inline HostRecord probe_host() {
  HostRecord host;
  host.nproc = std::thread::hardware_concurrency();
  host.sha256_backend = cia::crypto::sha256_backend_name();
  // Median of three tries each, so one scheduler hiccup does not decide
  // the record.
  std::vector<double> one, two, four;
  for (int rep = 0; rep < 3; ++rep) {
    one.push_back(busy_wall_ms(1));
    two.push_back(busy_wall_ms(2));
    four.push_back(busy_wall_ms(4));
  }
  const double base = median(one);
  host.busy2_ratio = base > 0 ? median(two) / base : 0;
  host.busy4_ratio = base > 0 ? median(four) / base : 0;
  return host;
}

}  // namespace fleetbench
