// Measurement plumbing of the performance benchmark: wall clocks, per-call
// accumulators, in-memory spans, and the transparent ScanRuntime decorator
// that times the engine/simulator boundary from outside.
//
// Nothing here reaches into a layer's internals.  Every number comes from
// timing calls into public functions: the decorator sits between an engine
// (core::Tracer, the Yarrp and Scamper baselines) and sim::SimScanRuntime,
// forwards every virtual unchanged, and wraps the response Sink so the time
// spent inside the engine's response handler can be split from the time the
// simulator spends delivering.

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.h"
#include "util/clock.h"

namespace perfbench {

using flashroute::util::Nanos;

inline Nanos mono_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline double ms_of(Nanos ns) { return static_cast<double>(ns) / 1e6; }
inline double s_of(Nanos ns) { return static_cast<double>(ns) / 1e9; }

/// Time and unit count accumulated over many calls of one function.
struct Accum {
  std::uint64_t calls = 0;
  std::uint64_t units = 0;
  Nanos ns = 0;

  void add(Nanos elapsed, std::uint64_t unit_count = 1) {
    ++calls;
    units += unit_count;
    ns += elapsed;
  }
  double ns_per_unit() const {
    return units == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(units);
  }
};

/// A named wall-clock interval, kept in memory and written once at exit.
struct Span {
  std::string name;
  Nanos start = 0;
  Nanos duration = 0;
  std::string detail;  ///< preformatted JSON members, may be empty
};

class SpanLog {
 public:
  explicit SpanLog(Nanos origin) : origin_(origin) {}

  void add(std::string name, Nanos start, Nanos end, std::string detail = {}) {
    spans_.push_back({std::move(name), start - origin_, end - start,
                      std::move(detail)});
  }

  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"spans\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%s\n{\"name\":\"%s\",\"start_ms\":%.3f,\"dur_ms\":%.3f%s%s}",
                   i == 0 ? "" : ",", s.name.c_str(), ms_of(s.start),
                   ms_of(s.duration), s.detail.empty() ? "" : ",",
                   s.detail.c_str());
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  Nanos origin_;
  std::vector<Span> spans_;
};

/// Records the IPv4 sources of ICMP time-exceeded and port-unreachable
/// packets that crossed the sink, parsed straight from the raw bytes — not
/// with net::parse_response — so the soundness oracle does not share code
/// with the engines it checks.  A small direct-mapped filter drops most
/// repeats (routers near the vantage answer over and over) before they
/// reach the logs.
class ResponseLedger {
 public:
  static constexpr std::uint8_t kTimeExceeded = 11;
  static constexpr std::uint8_t kUnreachable = 3;
  static constexpr std::uint8_t kPortUnreachable = 3;

  void reset() {
    time_exceeded_.clear();
    port_unreachable_.clear();
    recent_time_exceeded_.fill(0);
    recent_port_unreachable_.fill(0);
    sample_.clear();
    sample_sizes_.clear();
  }

  /// Keeps a copy of the first `count` delivered packets (for the parse
  /// microbenchmark of the traced run).
  void keep_sample(std::size_t count) { sample_limit_ = count; }

  void observe(std::span<const std::byte> p) {
    if (sample_sizes_.size() < sample_limit_) {
      sample_.insert(sample_.end(), p.begin(), p.end());
      sample_sizes_.push_back(static_cast<std::uint16_t>(p.size()));
    }
    if (p.size() < 28) return;
    const auto u8 = [&p](std::size_t i) {
      return std::to_integer<std::uint32_t>(p[i]);
    };
    if ((u8(0) >> 4) != 4 || u8(9) != 1) return;  // IPv4 carrying ICMP
    const std::size_t ihl = (u8(0) & 0xF) * 4;
    if (ihl < 20 || p.size() < ihl + 8) return;
    const std::uint32_t src =
        u8(12) << 24 | u8(13) << 16 | u8(14) << 8 | u8(15);
    const std::uint32_t type = u8(ihl);
    const std::uint32_t code = u8(ihl + 1);
    const bool te = type == kTimeExceeded;
    if (!te && !(type == kUnreachable && code == kPortUnreachable)) return;
    auto& recent = te ? recent_time_exceeded_ : recent_port_unreachable_;
    std::uint32_t& slot = recent[(src * 2654435761u) >> (32 - kRecentBits)];
    if (slot == src + 1) return;
    slot = src + 1;
    (te ? time_exceeded_ : port_unreachable_).push_back(src);
  }

  /// Sorts and deduplicates both logs; call once after the scan.
  void finish() {
    for (auto* v : {&time_exceeded_, &port_unreachable_}) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }
  }

  bool saw_time_exceeded_from(std::uint32_t ip) const {
    return std::binary_search(time_exceeded_.begin(), time_exceeded_.end(), ip);
  }
  std::uint64_t distinct_port_unreachable() const {
    return port_unreachable_.size();
  }

  template <typename F>
  void for_each_sample(F&& f) const {
    std::size_t offset = 0;
    for (const std::uint16_t size : sample_sizes_) {
      f(std::span<const std::byte>(sample_.data() + offset, size));
      offset += size;
    }
  }

 private:
  static constexpr int kRecentBits = 12;
  std::vector<std::uint32_t> time_exceeded_;
  std::vector<std::uint32_t> port_unreachable_;
  std::array<std::uint32_t, std::size_t{1} << kRecentBits> recent_time_exceeded_{};
  std::array<std::uint32_t, std::size_t{1} << kRecentBits>
      recent_port_unreachable_{};
  std::size_t sample_limit_ = 0;
  std::vector<std::byte> sample_;
  std::vector<std::uint16_t> sample_sizes_;
};

/// Per-scan tallies of the runtime boundary.
struct BoundaryStats {
  std::uint64_t scalar_calls = 0;
  std::uint64_t scalar_probes = 0;  ///< try_send calls
  std::uint64_t batch_calls = 0;
  std::uint64_t batch_probes = 0;  ///< packets handed to try_send_batch
  std::uint64_t send_failures = 0;
  std::uint64_t responses = 0;     ///< packets passed to the engine's sink
  Accum submit;   ///< time inside try_send / try_send_batch (units: probes)
  Accum deliver;  ///< time inside drain / drain_batch / idle_until
  Accum sink;     ///< time inside the engine's Sink (units: responses)
  Nanos ledger_ns = 0;  ///< oracle capture, inside deliver but not sink

  std::uint64_t probes() const { return scalar_probes + batch_probes; }
};

/// Transparent decorator over any ScanRuntime.  Every virtual is forwarded
/// — including batch_budget, send_time_of and set_rate, which shape what an
/// engine does — so a decorated scan is byte-identical to an undecorated
/// one.  With `timed` off it only counts (no clock reads), which is how the
/// untraced runs measure.
class TimedRuntime final : public flashroute::core::ScanRuntime {
 public:
  TimedRuntime(flashroute::core::ScanRuntime& inner, bool timed,
               ResponseLedger* ledger)
      : inner_(inner), timed_(timed), ledger_(ledger) {
    wrapped_ = [this](std::span<const std::byte> packet, Nanos arrival) {
      on_response(packet, arrival);
    };
  }

  const BoundaryStats& stats() const { return stats_; }

  Nanos now() const noexcept override { return inner_.now(); }

  [[nodiscard]] bool try_send(std::span<const std::byte> packet) override {
    ++stats_.scalar_calls;
    ++stats_.scalar_probes;
    const Nanos t0 = timed_ ? mono_ns() : 0;
    const bool ok = inner_.try_send(packet);
    if (timed_) stats_.submit.add(mono_ns() - t0);
    if (ok) {
      ++packets_sent_;
    } else {
      ++stats_.send_failures;
    }
    return ok;
  }

  [[nodiscard]] std::uint64_t try_send_batch(
      const flashroute::core::ProbeBatch& batch) override {
    ++stats_.batch_calls;
    stats_.batch_probes += batch.count();
    const Nanos t0 = timed_ ? mono_ns() : 0;
    const std::uint64_t ok = inner_.try_send_batch(batch);
    if (timed_) stats_.submit.add(mono_ns() - t0, batch.count());
    const auto sent = static_cast<std::uint64_t>(std::popcount(ok));
    packets_sent_ += sent;
    stats_.send_failures += batch.count() - sent;
    return ok;
  }

  void drain_batch(const Sink& sink) override {
    deliver(sink, [this] { inner_.drain_batch(wrapped_); });
  }

  std::uint32_t batch_budget() const noexcept override {
    return inner_.batch_budget();
  }

  Nanos send_time_of(std::uint32_t k) const noexcept override {
    return inner_.send_time_of(k);
  }

  void set_rate(double probes_per_second) override {
    inner_.set_rate(probes_per_second);
  }

  void drain(const Sink& sink) override {
    deliver(sink, [this] { inner_.drain(wrapped_); });
  }

  void idle_until(Nanos t, const Sink& sink) override {
    deliver(sink, [this, t] { inner_.idle_until(t, wrapped_); });
  }

  std::uint64_t packets_dropped() const noexcept override {
    return inner_.packets_dropped();
  }

 private:
  template <typename Call>
  void deliver(const Sink& sink, Call&& call) {
    const Sink* outer = current_;
    current_ = &sink;
    const std::uint64_t before = stats_.responses;
    const Nanos t0 = timed_ ? mono_ns() : 0;
    call();
    if (timed_) stats_.deliver.add(mono_ns() - t0, stats_.responses - before);
    current_ = outer;
  }

  void on_response(std::span<const std::byte> packet, Nanos arrival) {
    ++stats_.responses;
    if (!timed_) {
      if (ledger_ != nullptr) ledger_->observe(packet);
      (*current_)(packet, arrival);
      return;
    }
    const Nanos t0 = mono_ns();
    if (ledger_ != nullptr) ledger_->observe(packet);
    const Nanos t1 = mono_ns();
    (*current_)(packet, arrival);
    stats_.ledger_ns += t1 - t0;
    stats_.sink.add(mono_ns() - t1);
  }

  flashroute::core::ScanRuntime& inner_;
  bool timed_;
  ResponseLedger* ledger_;
  Sink wrapped_;
  const Sink* current_ = nullptr;
  BoundaryStats stats_;
};

}  // namespace perfbench
