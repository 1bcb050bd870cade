// FlashRoute performance benchmark: one command, one named workload, every
// end-to-end metric with its unit, and the program's outputs checked.
//
//   perfbench --workload <scan-fullscale|scan-offpath|daemon-jobs>
//             --seed <n> --seconds <s> --trace <0|1> --work <dir>
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics, measured from outside each layer
// by timing calls into its public functions (layers.h), and write their
// spans to <work>/spans-<workload>-<seed>.json.  The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.  A failed
// output check exits 1 without printing it.  README.md in this directory
// documents the workloads, the metrics and the layer map.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/scamper.h"
#include "baselines/yarrp.h"
#include "core/probe_codec.h"
#include "core/sharded_tracer.h"
#include "core/targets.h"
#include "core/tracer.h"
#include "io/checkpoint.h"
#include "io/scan_archive.h"
#include "layers.h"
#include "net/icmp.h"
#include "obs/metrics.h"
#include "obs/scan_metrics.h"
#include "obs/scan_tracer.h"
#include "obs/snapshot_exporter.h"
#include "oracles.h"
#include "sim/network.h"
#include "sim/params.h"
#include "sim/runtime.h"
#include "sim/topology.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "svc/job.h"
#include "svc/job_runner.h"
#include "svc/journal.h"

namespace perfbench {
namespace {

namespace fr = flashroute;
namespace fs = std::filesystem;

/// Taken during static initialization, before main: the cold set-up time
/// (setup_s) runs from here.
const Nanos g_process_start = mono_ns();

std::string g_tmp_dir;  ///< removed on every exit path

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fflush(stderr);
  if (!g_tmp_dir.empty()) {
    std::error_code ignored;
    fs::remove_all(g_tmp_dir, ignored);
  }
  // _Exit: daemon threads may still be running; skip static destructors.
  std::_Exit(1);
}

void require(const std::string& failure) {
  if (!failure.empty()) die("CHECK FAILED: " + failure);
}

/// Every oracle must reject a doctored input (see oracles.h).
void require_rejects(const char* oracle, const std::string& failure) {
  if (failure.empty()) {
    die(format("oracle self-test: %s accepted a doctored result", oracle));
  }
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 30;
  bool trace = false;
  std::string work = ".";
};

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') die("--seed wants a whole number");
    } else if (key == "--seconds") {
      o.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || o.seconds < 1 || o.seconds > 600) {
        die("--seconds wants a whole number in [1, 600]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") die("--trace wants 0 or 1");
      o.trace = value == "1";
    } else if (key == "--work") {
      o.work = value;
    } else {
      die("unknown option " + key);
    }
  }
  if (argc % 2 != 1) die("options come in --key value pairs");
  if (!have_workload) die("--workload is required");
  return o;
}

// --- reporting ---------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) die("metric " + name + " is not finite");
    metrics_.push_back({name, value, unit});
  }

  void print(std::uint64_t attempted, std::uint64_t failed) const {
    std::string out = format("{\"correct\": true, \"attempted\": %llu, "
                             "\"failed\": %llu, \"metrics\": {",
                             (unsigned long long)attempted,
                             (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, value, unit] = metrics_[i];
      out += format("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", name.c_str(), value, unit.c_str());
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
};

/// Per-layer metrics a workload does not exercise are reported as 0 so
/// every traced run prints the same set (README.md lists which apply).
const std::pair<const char*, const char*> kPerLayerMetrics[] = {
    {"probes_per_s", "probes/s"},
    {"jobs_per_s", "jobs/s"},
    {"job_latency_p50_ms", "ms"},
    {"sim.submit_ns_per_probe", "ns"},
    {"sim.submit_probes", "probes"},
    {"sim.deliver_ns_per_response", "ns"},
    {"sim.deliver_responses", "responses"},
    {"sim.probes_per_submit", "probes"},
    {"sim.submit_calls", "calls"},
    {"sim.scalar_send_share", "ratio"},
    {"sim.route_cache_hit_rate", "ratio"},
    {"sim.route_cache_lookups", "count"},
    {"sim.rate_limited", "count"},
    {"sim.process_isolated_ns", "ns"},
    {"sim.process_isolated_probes", "probes"},
    {"sim.topology_build_ms", "ms"},
    {"sim.hitlist_ms", "ms"},
    {"net.encode_ns", "ns"},
    {"net.encode_calls", "calls"},
    {"net.parse_ns", "ns"},
    {"net.parse_calls", "calls"},
    {"core.engine_ns_per_probe", "ns"},
    {"core.response_ns", "ns"},
    {"core.init_ms", "ms"},
    {"core.retransmits", "count"},
    {"core.probe_timeouts", "count"},
    {"core.rate_backoffs", "count"},
    {"core.convergence_stops", "count"},
    {"core.tracer_run_s", "s"},
    {"core.sharded_run_s", "s"},
    {"core.sharded_probes", "probes"},
    {"baselines.yarrp_run_s", "s"},
    {"baselines.scamper_run_s", "s"},
    {"io.checkpoint_save_ms", "ms"},
    {"io.checkpoint_saves", "count"},
    {"io.checkpoint_bytes", "bytes"},
    {"io.archive_write_ms", "ms"},
    {"io.archive_bytes", "bytes"},
    {"obs.export_ms", "ms"},
    {"obs.export_bytes", "bytes"},
    {"svc.submit_rtt_us", "us"},
    {"svc.submits", "count"},
    {"svc.queue_wait_ms", "ms"},
    {"svc.job_latency_p90_ms", "ms"},
    {"svc.status_rtt_us", "us"},
    {"svc.status_calls", "count"},
    {"svc.slices_per_job", "slices"},
    {"svc.preemptions", "count"},
    {"svc.journal_bytes_per_job", "bytes"},
    {"svc.archive_bytes_per_job", "bytes"},
    {"svc.jobs", "count"},
    {"svc.overhead_ms_per_job", "ms"},
    {"svc.recovery_ms", "ms"},
    {"svc.recovery_records", "records"},
    {"trace.overhead_pct", "%"},
    {"trace.untraced_rate", "1/s"},
    {"trace.traced_rate", "1/s"},
    {"trace.oracle_ns_per_response", "ns"},
};

/// Per-layer values by name; finish() orders them as kPerLayerMetrics and
/// fills the unmeasured ones with 0.
class LayerReport {
 public:
  void add(const std::string& name, double value) {
    if (!std::isfinite(value)) die("metric " + name + " is not finite");
    values_[name] = value;
  }
  Report finish() const {
    Report out;
    for (const auto& [name, unit] : kPerLayerMetrics) {
      const auto it = values_.find(name);
      out.add(name, it == values_.end() ? 0.0 : it->second, unit);
    }
    for (const auto& [name, value] : values_) {
      bool known = false;
      for (const auto& [n, u] : kPerLayerMetrics) known |= name == n;
      if (!known) die("per-layer metric " + name + " missing from the table");
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// VmHWM of this process in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    unsigned long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  die("cannot read VmHWM from /proc/self/status");
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

// --- worlds and scans -----------------------------------------------------

constexpr int kFullscaleBits = 20;  ///< >= 2^20: route cache auto-sized off
constexpr int kOffpathBits = 15;    ///< route cache auto-sized on (13 bits)

/// The simulated world: the succinct generator — the one every full-scale
/// number uses — inside 1.0.0.0-16.255.255.255.  The topology is the same
/// for every --seed (kWorldSeed): a different topology seed moves the
/// interface count by up to a third at 2^20, which would swamp every bound.
/// --seed picks what a scan operator picks — targets, probing order and
/// the fault schedule.
constexpr std::uint64_t kWorldSeed = 1;

fr::sim::SimParams world_params(int bits, std::uint64_t seed, bool faults) {
  fr::sim::SimParams params;
  params.seed = kWorldSeed;
  params.prefix_bits = bits;
  params.topology_mode = fr::sim::TopologyMode::kSuccinct;
  if (faults) {
    // Loss, duplication and reordering on the wire; no local send faults.
    params.faults.probe_loss = 0.02;
    params.faults.response_loss = 0.02;
    params.faults.duplicate_prob = 0.01;
    params.faults.reorder_prob = 0.02;
    params.faults.fault_seed = seed ^ 0xFA17;
  }
  return params;
}

std::uint64_t scan_seed(std::uint64_t seed) { return seed * 2 + 7; }
std::uint64_t target_seed(std::uint64_t seed) { return seed * 3 + 42; }

/// /24s of the universe outside the special-purpose IPv4 ranges, counted
/// here rather than asked of the engine (the paper-property oracle's
/// denominator).
std::uint64_t scanned_prefixes(const fr::sim::SimParams& params) {
  struct Range {
    std::uint32_t base;
    int bits;
  };
  static constexpr Range kSpecial[] = {
      {0x00000000, 8},  {0x0A000000, 8},  {0x64400000, 10}, {0x7F000000, 8},
      {0xA9FE0000, 16}, {0xAC100000, 12}, {0xC0000000, 24}, {0xC0000200, 24},
      {0xC0A80000, 16}, {0xC6120000, 15}, {0xC6336400, 24}, {0xCB007100, 24},
      {0xE0000000, 4},  {0xF0000000, 4}};
  std::uint64_t count = 0;
  for (std::uint32_t i = 0; i < params.num_prefixes(); ++i) {
    const std::uint32_t address = (params.first_prefix + i) << 8;
    bool special = false;
    for (const Range& r : kSpecial) {
      special |= (address >> (32 - r.bits)) == (r.base >> (32 - r.bits));
    }
    count += special ? 0 : 1;
  }
  return count;
}

struct ScanOutcome {
  fr::core::ScanResult result;
  BoundaryStats boundary;
  fr::sim::NetworkStats network;
  Nanos init_ns = 0;  ///< engine construction
  Nanos run_ns = 0;   ///< engine run()
  bool aborted = false;
};

struct ScanHooks {
  /// Called with the sim runtime before the engine exists (gauges).
  std::function<void(fr::sim::SimScanRuntime&)> attach;
  /// Called right after the engine is constructed (end of set-up).
  std::function<void()> ready;
  fr::util::Nanos start_time = 0;  ///< virtual clock start (resume)
  std::uint64_t probes_before = 0;  ///< probes a resumed scan inherits
  bool allow_abort = false;
};

/// One scan through the decorator: fresh network state, engine
/// construction and run() timed apart, conservation checked.  `ledger`,
/// when given, captures the responses for the soundness oracle.
template <typename Engine, typename Config>
ScanOutcome run_scan(const char* what, const fr::sim::Topology& topology,
                     const Config& config, bool timed, ResponseLedger* ledger,
                     const ScanHooks& hooks = {}) {
  ScanOutcome out;
  fr::sim::SimNetwork network(topology);
  fr::sim::SimScanRuntime sim_runtime(network, config.probes_per_second,
                                      hooks.start_time);
  if (hooks.attach) hooks.attach(sim_runtime);
  TimedRuntime runtime(sim_runtime, timed, ledger);
  if (ledger != nullptr) ledger->reset();
  const Nanos t0 = mono_ns();
  Engine engine(config, runtime);
  const Nanos t1 = mono_ns();
  if (hooks.ready) hooks.ready();
  out.result = engine.run();
  out.run_ns = mono_ns() - t1;
  out.init_ns = t1 - t0;
  if constexpr (requires { engine.aborted(); }) out.aborted = engine.aborted();
  if (out.aborted && !hooks.allow_abort) {
    die(format("%s: scan did not complete", what));
  }
  out.boundary = runtime.stats();
  out.network = network.stats();
  fr::sim::FaultPlane::Stats faults;
  if (const auto* plane = network.fault_plane()) faults = plane->stats();
  require(check_conservation(what, out.result.probes_sent - hooks.probes_before,
                             out.boundary, runtime.packets_sent(), out.network,
                             faults));
  return out;
}

fr::core::TracerConfig tracer_config(const fr::sim::Topology& topology,
                                     std::uint64_t seed) {
  const fr::sim::SimParams& p = topology.params();
  fr::core::TracerConfig config;
  config.first_prefix = p.first_prefix;
  config.prefix_bits = p.prefix_bits;
  config.vantage = fr::net::Ipv4Address(p.vantage_address);
  config.probes_per_second = fr::sim::scaled_probe_rate(100'000.0, p.prefix_bits);
  config.seed = scan_seed(seed);
  config.target_seed = target_seed(seed);
  return config;
}

/// Isolated SimNetwork::process_into cost: a destination-major TTL sweep
/// (TTL 1..16 per /24 target) over a fresh network of the same world.
Accum process_isolated(const fr::sim::Topology& topology, std::uint64_t seed,
                       std::uint64_t probes) {
  fr::sim::SimNetwork network(topology);
  const fr::sim::SimParams& p = topology.params();
  const fr::core::ProbeCodec codec(fr::net::Ipv4Address(p.vantage_address));
  std::array<std::byte, fr::core::ProbeCodec::kMaxProbeSize> probe;
  std::array<std::byte, fr::net::kMaxResponseSize> response;
  fr::util::Nanos when = 0;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  const Nanos t0 = mono_ns();
  for (std::uint32_t block = 0; sent < probes; ++block) {
    const fr::net::Ipv4Address dst(fr::core::random_target(
        target_seed(seed), p.first_prefix + block % p.num_prefixes()));
    for (std::uint8_t ttl = 1; ttl <= 16 && sent < probes; ++ttl, ++sent) {
      const std::size_t size = codec.encode_udp(dst, ttl, false, when, probe);
      if (network.process_into(std::span<const std::byte>(probe.data(), size),
                               when, response)) {
        ++answered;
      }
      when += 10'000;
    }
  }
  Accum accum;
  accum.add(mono_ns() - t0, sent);
  if (answered == 0) die("isolated process sweep drew no responses");
  return accum;
}

/// ProbeCodec::encode_udp and net::parse_response, timed in isolation.
void codec_microbench(const fr::sim::Topology& topology, std::uint64_t seed,
                      const ResponseLedger& sample, LayerReport& report) {
  const fr::sim::SimParams& p = topology.params();
  const fr::core::ProbeCodec codec(fr::net::Ipv4Address(p.vantage_address));
  std::array<std::byte, fr::core::ProbeCodec::kMaxProbeSize> probe;
  constexpr std::uint64_t kEncodes = 1 << 20;
  std::uint64_t sink = 0;
  Nanos t0 = mono_ns();
  for (std::uint64_t i = 0; i < kEncodes; ++i) {
    const fr::net::Ipv4Address dst(fr::core::random_target(
        target_seed(seed),
        p.first_prefix + static_cast<std::uint32_t>(i >> 4) % p.num_prefixes()));
    sink += codec.encode_udp(dst, static_cast<std::uint8_t>(1 + (i & 15)), false,
                             static_cast<Nanos>(i) * 10'000, probe);
  }
  const Nanos encode_ns = mono_ns() - t0;
  std::uint64_t parses = 0;
  t0 = mono_ns();
  for (int pass = 0; pass < 8; ++pass) {
    sample.for_each_sample([&](std::span<const std::byte> packet) {
      if (const auto parsed = fr::net::parse_response(packet)) {
        sink += parsed->responder.value();
      }
      ++parses;
    });
  }
  const Nanos parse_ns = mono_ns() - t0;
  if (sink == 0 || parses == 0) die("codec microbenchmark saw no packets");
  report.add("net.encode_ns", ratio(static_cast<double>(encode_ns), kEncodes));
  report.add("net.encode_calls", kEncodes);
  report.add("net.parse_ns", ratio(static_cast<double>(parse_ns), static_cast<double>(parses)));
  report.add("net.parse_calls", static_cast<double>(parses));
}

/// Boundary tallies summed over the traced scans of a run.
struct LayerTotals {
  BoundaryStats b;
  std::uint64_t engine_probes = 0;
  Nanos engine_ns = 0;  ///< run() wall minus runtime calls plus sink time
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t rate_limited = 0;

  void add(const ScanOutcome& s) {
    const BoundaryStats& x = s.boundary;
    b.scalar_calls += x.scalar_calls;
    b.scalar_probes += x.scalar_probes;
    b.batch_calls += x.batch_calls;
    b.batch_probes += x.batch_probes;
    b.responses += x.responses;
    b.submit.ns += x.submit.ns;
    b.submit.units += x.submit.units;
    b.deliver.ns += x.deliver.ns;
    b.deliver.units += x.deliver.units;
    b.sink.ns += x.sink.ns;
    b.sink.units += x.sink.units;
    b.ledger_ns += x.ledger_ns;
    engine_probes += x.probes();
    engine_ns += s.run_ns - x.submit.ns - x.deliver.ns + x.sink.ns;
    cache_hits += s.network.route_cache_hits;
    cache_lookups += s.network.route_cache_hits + s.network.route_cache_misses;
    rate_limited += s.network.rate_limited;
  }

  void report_into(LayerReport& r) const {
    r.add("sim.submit_ns_per_probe", b.submit.ns_per_unit());
    r.add("sim.submit_probes", static_cast<double>(b.submit.units));
    r.add("sim.deliver_ns_per_response",
          ratio(static_cast<double>(b.deliver.ns - b.sink.ns - b.ledger_ns),
                static_cast<double>(b.responses)));
    r.add("sim.deliver_responses", static_cast<double>(b.responses));
    r.add("sim.probes_per_submit",
          ratio(static_cast<double>(b.probes()),
                static_cast<double>(b.scalar_calls + b.batch_calls)));
    r.add("sim.submit_calls", static_cast<double>(b.scalar_calls + b.batch_calls));
    r.add("sim.scalar_send_share",
          ratio(static_cast<double>(b.scalar_probes),
                static_cast<double>(b.probes())));
    r.add("sim.route_cache_hit_rate",
          ratio(static_cast<double>(cache_hits),
                static_cast<double>(cache_lookups)));
    r.add("sim.route_cache_lookups", static_cast<double>(cache_lookups));
    r.add("sim.rate_limited", static_cast<double>(rate_limited));
    r.add("core.engine_ns_per_probe",
          ratio(static_cast<double>(engine_ns),
                static_cast<double>(engine_probes)));
    r.add("core.response_ns", b.sink.ns_per_unit());
    r.add("trace.oracle_ns_per_response",
          ratio(static_cast<double>(b.ledger_ns),
                static_cast<double>(b.responses)));
  }
};

/// Runs `rep(i)` back to back until `seconds` have elapsed since the first
/// started (whole reps only, at least `min_reps`).
template <typename Rep>
int run_window(int seconds, int min_reps, Rep&& rep) {
  const Nanos start = mono_ns();
  const Nanos window = static_cast<Nanos>(seconds) * 1'000'000'000;
  int n = 0;
  while (n < min_reps || mono_ns() - start < window) rep(n++);
  return n;
}

// --- scan-fullscale ------------------------------------------------------------

struct FullscaleRep {
  Nanos wall = 0;
  Nanos topology_ns = 0;
  Nanos hitlist_ns = 0;
  ScanOutcome scan;
  ScanDigest digest;
};

/// One rep: world construction, hitlist, engine construction and a
/// single-engine batched Tracer scan with hitlist preprobing, routes not
/// collected — the paper's full-scale configuration.  With a `ledger` the
/// soundness oracle checks the scan (after the rep's clock stops).
FullscaleRep fullscale_rep(const Options& o, bool timed, ResponseLedger* ledger,
                           Nanos* setup_end) {
  FullscaleRep rep;
  const Nanos t0 = mono_ns();
  const fr::sim::Topology topology(world_params(kFullscaleBits, o.seed, false));
  const Nanos t1 = mono_ns();
  const std::vector<std::uint32_t> hitlist = topology.generate_hitlist();
  const Nanos t2 = mono_ns();
  fr::core::TracerConfig config = tracer_config(topology, o.seed);
  config.hitlist = &hitlist;
  config.collect_routes = false;
  ScanHooks hooks;
  hooks.ready = [setup_end] {
    if (*setup_end == 0) *setup_end = mono_ns();
  };
  rep.scan = run_scan<fr::core::Tracer>("scan-fullscale", topology, config,
                                        timed, ledger, hooks);
  rep.wall = mono_ns() - t0;
  rep.topology_ns = t1 - t0;
  rep.hitlist_ns = t2 - t1;
  if (ledger != nullptr) {
    ledger->finish();
    require(check_soundness("scan-fullscale", rep.scan.result, *ledger));
  }
  rep.digest = digest_of(rep.scan.result);
  return rep;
}

/// Self-tests of the scan oracles on real data of a scan without local send
/// failures: the real data must pass, and each doctored copy — one per
/// clause of each oracle — must be rejected.
void self_test_scan_oracles(const ScanOutcome& scan, const ResponseLedger& ledger,
                            const ScanDigest& digest) {
  ScanDigest other = digest;
  ++other.probes;
  require_rejects("determinism", check_determinism("self-test", digest, other));

  const std::uint64_t sent = scan.result.probes_sent;
  require(check_conservation("self-test", sent, scan.boundary, sent,
                             scan.network, {}));
  require_rejects("conservation (result)",
                  check_conservation("self-test", sent + 1, scan.boundary, sent,
                                     scan.network, {}));
  BoundaryStats boundary = scan.boundary;
  ++boundary.send_failures;
  require_rejects("conservation (submitted)",
                  check_conservation("self-test", sent, boundary, sent,
                                     scan.network, {}));
  fr::sim::NetworkStats network = scan.network;
  ++network.probes;
  require_rejects("conservation (network)",
                  check_conservation("self-test", sent, scan.boundary, sent,
                                     network, {}));

  require(check_soundness("self-test", scan.result, ledger));
  fr::core::ScanResult doctored = scan.result;
  doctored.interfaces.insert(0xC0000201);  // 192.0.2.1 never answers
  require_rejects("soundness", check_soundness("self-test", doctored, ledger));
  doctored = scan.result;
  doctored.interfaces.clear();
  require_rejects("soundness (empty)", check_soundness("self-test", doctored, ledger));
  doctored = scan.result;
  doctored.destinations_reached = ledger.distinct_port_unreachable() + 1;
  require_rejects("soundness (reached)",
                  check_soundness("self-test", doctored, ledger));
}

/// Per-layer measurements shared by both scan workloads: the isolated
/// process sweep and the codec microbenchmarks, on the workload's world.
void scan_microbenches(int bits, bool faults, const Options& o,
                       const ResponseLedger& sample, LayerReport& layers,
                       SpanLog& spans) {
  const Nanos t0 = mono_ns();
  const fr::sim::Topology topology(world_params(bits, o.seed, faults));
  const Accum isolated = process_isolated(topology, o.seed, 2'000'000);
  layers.add("sim.process_isolated_ns", isolated.ns_per_unit());
  layers.add("sim.process_isolated_probes", static_cast<double>(isolated.units));
  codec_microbench(topology, o.seed, sample, layers);
  spans.add("microbenchmarks", t0, mono_ns());
}

void trace_overhead(const std::vector<double>& untraced,
                    const std::vector<double>& traced, LayerReport& layers) {
  const double u = median(untraced);
  const double t = median(traced);
  layers.add("trace.untraced_rate", u);
  layers.add("trace.traced_rate", t);
  layers.add("trace.overhead_pct", u == 0.0 ? 0.0 : 100.0 * (u - t) / u);
}

/// The same universe as 8 logical shards on one ShardedTracer worker, for
/// the locality comparison with the single-engine scan (per-layer only:
/// the sharded engine is not a workload).
void sharded_comparison(const Options& o, LayerReport& layers, SpanLog& spans) {
  const fr::sim::Topology topology(world_params(kFullscaleBits, o.seed, false));
  const std::vector<std::uint32_t> hitlist = topology.generate_hitlist();
  fr::core::ShardedTracerConfig config;
  config.base = tracer_config(topology, o.seed);
  config.base.hitlist = &hitlist;
  config.base.collect_routes = false;
  config.shard_prefix_bits = kFullscaleBits - 3;
  config.num_workers = 1;
  fr::sim::SimShardRuntimeProvider provider(topology, config);
  fr::core::ShardedTracer tracer(config, provider);
  const Nanos t0 = mono_ns();
  const fr::core::ScanResult result = tracer.run();
  const Nanos t1 = mono_ns();
  spans.add("sharded_scan", t0, t1,
            format("\"probes\":%llu", (unsigned long long)result.probes_sent));
  layers.add("core.sharded_run_s", s_of(t1 - t0));
  layers.add("core.sharded_probes", static_cast<double>(result.probes_sent));
}

void workload_fullscale(const Options& o, SpanLog& spans, Report& e2e,
                        LayerReport& layers, std::uint64_t& attempted) {
  ResponseLedger ledger;
  ResponseLedger traced_ledger;
  traced_ledger.keep_sample(1 << 16);
  Nanos setup_end = 0;

  // Warm-up rep: not measured, but its set-up is the run's cold set-up.
  // The soundness oracle checks it and every traced rep; the untraced reps
  // run without the capture (its cost is the benchmark's, not the
  // program's) and are tied to the checked scan by the determinism check.
  Nanos t0 = mono_ns();
  const FullscaleRep warm = fullscale_rep(o, false, &ledger, &setup_end);
  spans.add("setup", g_process_start, setup_end);
  spans.add("rep.warmup", t0, t0 + warm.wall);
  ++attempted;
  self_test_scan_oracles(warm.scan, ledger, warm.digest);
  const ScanDigest reference = warm.digest;

  std::vector<double> pps, traced_pps, topology_ms, hitlist_ms, init_ms, run_s;
  LayerTotals totals;
  run_window(o.seconds, o.trace ? 2 : 1, [&](int i) {
    const bool timed = o.trace && i % 2 == 0;
    const Nanos start = mono_ns();
    const FullscaleRep rep =
        fullscale_rep(o, timed, timed ? &traced_ledger : nullptr, &setup_end);
    ++attempted;
    spans.add(timed ? "rep.traced" : "rep", start, start + rep.wall,
              format("\"probes\":%llu", (unsigned long long)rep.digest.probes));
    require(check_determinism(timed ? "scan-fullscale traced rep"
                                    : "scan-fullscale rep",
                              reference, rep.digest));
    const double rate = static_cast<double>(rep.digest.probes) / s_of(rep.wall);
    if (!timed) {
      pps.push_back(rate);
      return;
    }
    traced_pps.push_back(rate);
    totals.add(rep.scan);
    topology_ms.push_back(ms_of(rep.topology_ns));
    hitlist_ms.push_back(ms_of(rep.hitlist_ns));
    init_ms.push_back(ms_of(rep.scan.init_ns));
    run_s.push_back(s_of(rep.scan.run_ns));
  });

  if (!o.trace) {
    e2e.add("peak_rss_mib", peak_rss_mib(), "MiB");
    e2e.add("virtual_scan_s", s_of(reference.virtual_ns), "s");
    e2e.add("probes_sent", static_cast<double>(reference.probes), "probes");
    e2e.add("interfaces", static_cast<double>(reference.interfaces), "count");
    e2e.add("setup_s", s_of(setup_end - g_process_start), "s");
    return;
  }
  layers.add("probes_per_s", median(pps));
  totals.report_into(layers);
  layers.add("sim.topology_build_ms", median(topology_ms));
  layers.add("sim.hitlist_ms", median(hitlist_ms));
  layers.add("core.init_ms", median(init_ms));
  layers.add("core.tracer_run_s", median(run_s));
  layers.add("core.convergence_stops",
             static_cast<double>(warm.scan.result.convergence_stops));
  trace_overhead(pps, traced_pps, layers);
  scan_microbenches(kFullscaleBits, false, o, traced_ledger, layers, spans);
  sharded_comparison(o, layers, spans);
}

// --- scan-offpath --------------------------------------------------------------

struct OffpathLedgers {
  ResponseLedger flashroute;
  ResponseLedger yarrp;
  ResponseLedger scamper;
};

struct OffpathRep {
  Nanos wall = 0;
  Nanos topology_ns = 0;
  Nanos hitlist_ns = 0;
  ScanOutcome flashroute;
  ScanOutcome yarrp;
  ScanOutcome scamper;
  std::string telemetry;
  Accum checkpoint_save;
  std::uint64_t checkpoint_bytes = 0;
  Nanos export_ns = 0;
  Nanos archive_ns = 0;
  std::uint64_t archive_bytes = 0;
  std::array<ScanDigest, 3> digests;

  std::uint64_t probes() const {
    return digests[0].probes + digests[1].probes + digests[2].probes;
  }
};

/// FlashRoute off the batched path: retransmission, adaptive backoff and
/// periodic checkpoints, routes collected.
fr::core::TracerConfig offpath_flashroute_config(
    const fr::sim::Topology& topology, std::uint64_t seed,
    const std::vector<std::uint32_t>& hitlist) {
  fr::core::TracerConfig config = tracer_config(topology, seed);
  config.hitlist = &hitlist;
  config.max_retransmits = 2;
  config.adaptive_backoff = true;
  config.checkpoint_interval = 30 * fr::util::kSecond;
  return config;
}

fr::baselines::YarrpConfig offpath_yarrp_config(const fr::sim::Topology& topology,
                                                std::uint64_t seed) {
  const fr::sim::SimParams& p = topology.params();
  fr::baselines::YarrpConfig config;
  config.first_prefix = p.first_prefix;
  config.prefix_bits = p.prefix_bits;
  config.vantage = fr::net::Ipv4Address(p.vantage_address);
  config.probes_per_second = fr::sim::scaled_probe_rate(100'000.0, p.prefix_bits);
  config.fill_mode = true;
  config.probe_type = fr::baselines::YarrpConfig::ProbeType::kUdp;
  config.seed = scan_seed(seed) + 1;
  config.target_seed = target_seed(seed);
  return config;
}

fr::baselines::ScamperConfig offpath_scamper_config(
    const fr::sim::Topology& topology, std::uint64_t seed) {
  const fr::sim::SimParams& p = topology.params();
  fr::baselines::ScamperConfig config;
  config.first_prefix = p.first_prefix;
  config.prefix_bits = p.prefix_bits;
  config.vantage = fr::net::Ipv4Address(p.vantage_address);
  config.probes_per_second = fr::sim::scaled_probe_rate(10'000.0, p.prefix_bits);
  config.max_retries = 2;
  config.seed = scan_seed(seed) + 2;
  config.target_seed = target_seed(seed);
  return config;
}

/// One rep: a faulty world, then FlashRoute (checkpoints published with
/// io::save_checkpoint_atomic, telemetry exported with obs::SnapshotExporter,
/// result written with io::write_archive), Yarrp in fill mode and Scamper
/// with retries.  The checks run after the rep's clock stops; the soundness
/// oracle runs only when `ledgers` are given.
OffpathRep offpath_rep(const Options& o, bool timed, OffpathLedgers* ledgers,
                       Nanos* setup_end) {
  OffpathRep rep;
  const std::string checkpoint_path = g_tmp_dir + "/flashroute.frck";
  const std::string archive_path = g_tmp_dir + "/flashroute.frsc";
  const Nanos t0 = mono_ns();
  const fr::sim::Topology topology(world_params(kOffpathBits, o.seed, true));
  const Nanos t1 = mono_ns();
  const std::vector<std::uint32_t> hitlist = topology.generate_hitlist();
  const Nanos t2 = mono_ns();

  fr::core::TracerConfig config =
      offpath_flashroute_config(topology, o.seed, hitlist);
  fr::obs::MetricsRegistry registry;
  config.telemetry.registry = &registry;
  config.telemetry.ids = fr::obs::register_scan_metrics(registry, true);
  registry.freeze(1);
  fr::obs::ScanTracer scan_tracer(registry, 10 * fr::util::kSecond);
  config.telemetry.tracer = &scan_tracer;
  config.telemetry.lane = registry.lane(0);
  config.telemetry.lane_id = 0;
  config.checkpoint_sink = [&](const fr::io::ScanCheckpoint& checkpoint) {
    const Nanos c0 = mono_ns();
    const bool ok =
        fr::io::save_checkpoint_atomic(checkpoint_path, checkpoint, false);
    rep.checkpoint_save.add(mono_ns() - c0);
    rep.checkpoint_bytes += file_bytes(checkpoint_path);
    return ok;
  };
  ScanHooks hooks;
  hooks.attach = [&registry](fr::sim::SimScanRuntime& runtime) {
    runtime.register_gauges(registry, 0);
  };
  hooks.ready = [setup_end] {
    if (*setup_end == 0) *setup_end = mono_ns();
  };
  rep.flashroute = run_scan<fr::core::Tracer>(
      "scan-offpath flashroute", topology, config, timed,
      ledgers ? &ledgers->flashroute : nullptr, hooks);

  Nanos e0 = mono_ns();
  std::ostringstream telemetry;
  fr::obs::SnapshotExporter exporter(telemetry);
  exporter.write_intervals(scan_tracer, registry);
  exporter.write_summary(scan_tracer, registry, rep.flashroute.result.scan_time);
  rep.telemetry = telemetry.str();
  rep.export_ns = mono_ns() - e0;

  e0 = mono_ns();
  {
    std::ofstream archive(archive_path, std::ios::binary | std::ios::trunc);
    fr::io::ArchiveHeader header;
    header.first_prefix = config.first_prefix;
    header.prefix_bits = config.prefix_bits;
    header.seed = config.seed;
    fr::io::write_archive(rep.flashroute.result, header, archive);
    archive.close();
    if (!archive) die("cannot write " + archive_path);
  }
  rep.archive_ns = mono_ns() - e0;

  const fr::baselines::YarrpConfig yarrp = offpath_yarrp_config(topology, o.seed);
  rep.yarrp = run_scan<fr::baselines::Yarrp>(
      "scan-offpath yarrp", topology, yarrp, timed,
      ledgers ? &ledgers->yarrp : nullptr);
  rep.scamper = run_scan<fr::baselines::Scamper>(
      "scan-offpath scamper", topology, offpath_scamper_config(topology, o.seed),
      timed, ledgers ? &ledgers->scamper : nullptr);
  rep.wall = mono_ns() - t0;
  rep.topology_ns = t1 - t0;
  rep.hitlist_ns = t2 - t1;

  rep.archive_bytes = file_bytes(archive_path);
  const ScanOutcome* outcomes[] = {&rep.flashroute, &rep.yarrp, &rep.scamper};
  for (std::size_t i = 0; i < 3; ++i) {
    rep.digests[i] = digest_of(outcomes[i]->result);
  }
  if (ledgers != nullptr) {
    const std::pair<const char*, ResponseLedger*> captured[] = {
        {"scan-offpath flashroute", &ledgers->flashroute},
        {"scan-offpath yarrp", &ledgers->yarrp},
        {"scan-offpath scamper", &ledgers->scamper}};
    for (std::size_t i = 0; i < 3; ++i) {
      captured[i].second->finish();
      require(check_soundness(captured[i].first, outcomes[i]->result,
                              *captured[i].second));
    }
  }
  require(check_telemetry(rep.telemetry, rep.flashroute.result));
  require(check_paper_property(rep.flashroute.result.probes_sent,
                               rep.yarrp.result.probes_sent, yarrp.exhaustive_ttl,
                               scanned_prefixes(topology.params())));
  return rep;
}

/// Checkpoint oracle: a scan stopped at its third checkpoint barrier and
/// resumed from the published file must reproduce the uninterrupted scan.
ScanDigest resumed_digest(const Options& o, std::uint64_t& attempted) {
  const fr::sim::Topology topology(world_params(kOffpathBits, o.seed, true));
  const std::vector<std::uint32_t> hitlist = topology.generate_hitlist();
  fr::core::TracerConfig config =
      offpath_flashroute_config(topology, o.seed, hitlist);
  const std::string path = g_tmp_dir + "/resume.frck";
  int barriers = 0;
  config.checkpoint_sink = [&](const fr::io::ScanCheckpoint& checkpoint) {
    if (++barriers < 3) return true;
    if (!fr::io::save_checkpoint_atomic(path, checkpoint, false)) {
      die("cannot publish " + path);
    }
    return false;
  };
  ScanHooks interrupted;
  interrupted.allow_abort = true;
  const ScanOutcome first = run_scan<fr::core::Tracer>(
      "scan-offpath interrupted", topology, config, false, nullptr, interrupted);
  ++attempted;
  if (!first.aborted) die("CHECK FAILED: scan ended before its third barrier");
  const std::optional<fr::io::ScanCheckpoint> checkpoint =
      fr::io::load_checkpoint_file(path);
  if (!checkpoint) die("CHECK FAILED: cannot load the published checkpoint");
  config.resume_from = &*checkpoint;
  config.checkpoint_sink = [](const fr::io::ScanCheckpoint&) { return true; };
  ScanHooks resume;
  resume.start_time = checkpoint->virtual_now;
  resume.probes_before = checkpoint->result.probes_sent;
  const ScanOutcome resumed = run_scan<fr::core::Tracer>(
      "scan-offpath resumed", topology, config, false, nullptr, resume);
  return digest_of(resumed.result);
}

void workload_offpath(const Options& o, SpanLog& spans, Report& e2e,
                      LayerReport& layers, std::uint64_t& attempted) {
  OffpathLedgers ledgers;
  OffpathLedgers traced_ledgers;
  traced_ledgers.flashroute.keep_sample(1 << 16);
  Nanos setup_end = 0;

  // As on scan-fullscale: the warm-up rep and the traced reps go through the
  // soundness oracle, the untraced reps through the determinism check.
  Nanos t0 = mono_ns();
  const OffpathRep warm = offpath_rep(o, false, &ledgers, &setup_end);
  attempted += 3;
  spans.add("setup", g_process_start, setup_end);
  spans.add("rep.warmup", t0, t0 + warm.wall);
  self_test_scan_oracles(warm.yarrp, ledgers.yarrp, warm.digests[1]);
  const std::uint64_t yarrp_probes = warm.yarrp.result.probes_sent;
  require_rejects("paper property (fewer)",
                  check_paper_property(yarrp_probes, yarrp_probes, 32, 1));
  require_rejects("paper property (exhaustive)",
                  check_paper_property(yarrp_probes - 1, yarrp_probes, 32,
                                       yarrp_probes / 32 + 1));
  fr::core::ScanResult doctored = warm.flashroute.result;
  ++doctored.retransmits;
  require_rejects("telemetry", check_telemetry(warm.telemetry, doctored));
  require_rejects("telemetry (missing)",
                  check_telemetry("", warm.flashroute.result));

  std::vector<double> pps, traced_pps, topology_ms, hitlist_ms, init_ms;
  std::array<std::vector<double>, 3> run_s;
  std::vector<double> save_ms, export_ms, archive_ms;
  LayerTotals totals;
  run_window(o.seconds, o.trace ? 2 : 1, [&](int i) {
    const bool timed = o.trace && i % 2 == 0;
    const Nanos start = mono_ns();
    const OffpathRep rep =
        offpath_rep(o, timed, timed ? &traced_ledgers : nullptr, &setup_end);
    attempted += 3;
    spans.add(timed ? "rep.traced" : "rep", start, start + rep.wall,
              format("\"probes\":%llu", (unsigned long long)rep.probes()));
    for (std::size_t k = 0; k < 3; ++k) {
      require(check_determinism("scan-offpath rep", warm.digests[k],
                                rep.digests[k]));
    }
    const double rate = static_cast<double>(rep.probes()) / s_of(rep.wall);
    if (!timed) {
      pps.push_back(rate);
      return;
    }
    traced_pps.push_back(rate);
    for (const ScanOutcome* scan : {&rep.flashroute, &rep.yarrp, &rep.scamper}) {
      totals.add(*scan);
    }
    topology_ms.push_back(ms_of(rep.topology_ns));
    hitlist_ms.push_back(ms_of(rep.hitlist_ns));
    init_ms.push_back(ms_of(rep.flashroute.init_ns));
    run_s[0].push_back(s_of(rep.flashroute.run_ns));
    run_s[1].push_back(s_of(rep.yarrp.run_ns));
    run_s[2].push_back(s_of(rep.scamper.run_ns));
    save_ms.push_back(ratio(ms_of(rep.checkpoint_save.ns),
                            static_cast<double>(rep.checkpoint_save.calls)));
    export_ms.push_back(ms_of(rep.export_ns));
    archive_ms.push_back(ms_of(rep.archive_ns));
  });

  t0 = mono_ns();
  const ScanDigest resumed = resumed_digest(o, attempted);
  spans.add("check.checkpoint_resume", t0, mono_ns());
  require(check_determinism("checkpoint resume", warm.digests[0], resumed));
  ScanDigest other = resumed;
  ++other.interfaces;
  require_rejects("checkpoint resume",
                  check_determinism("self-test", warm.digests[0], other));

  if (!o.trace) {
    const auto sum = [&warm](auto field) {
      double total = 0.0;
      for (const ScanDigest& d : warm.digests) total += static_cast<double>(field(d));
      return total;
    };
    e2e.add("peak_rss_mib", peak_rss_mib(), "MiB");
    e2e.add("virtual_scan_s",
            sum([](const ScanDigest& d) { return d.virtual_ns; }) / 1e9, "s");
    e2e.add("probes_sent", sum([](const ScanDigest& d) { return d.probes; }),
            "probes");
    e2e.add("interfaces", sum([](const ScanDigest& d) { return d.interfaces; }),
            "count");
    e2e.add("setup_s", s_of(setup_end - g_process_start), "s");
    return;
  }
  const fr::core::ScanResult& flashroute = warm.flashroute.result;
  layers.add("probes_per_s", median(pps));
  totals.report_into(layers);
  layers.add("sim.topology_build_ms", median(topology_ms));
  layers.add("sim.hitlist_ms", median(hitlist_ms));
  layers.add("core.init_ms", median(init_ms));
  layers.add("core.retransmits", static_cast<double>(flashroute.retransmits));
  layers.add("core.probe_timeouts", static_cast<double>(flashroute.probe_timeouts));
  layers.add("core.rate_backoffs", static_cast<double>(flashroute.rate_backoffs));
  layers.add("core.convergence_stops",
             static_cast<double>(flashroute.convergence_stops));
  layers.add("core.tracer_run_s", median(run_s[0]));
  layers.add("baselines.yarrp_run_s", median(run_s[1]));
  layers.add("baselines.scamper_run_s", median(run_s[2]));
  layers.add("io.checkpoint_save_ms", median(save_ms));
  layers.add("io.checkpoint_saves", static_cast<double>(warm.checkpoint_save.calls));
  layers.add("io.checkpoint_bytes", static_cast<double>(warm.checkpoint_bytes));
  layers.add("io.archive_write_ms", median(archive_ms));
  layers.add("io.archive_bytes", static_cast<double>(warm.archive_bytes));
  layers.add("obs.export_ms", median(export_ms));
  layers.add("obs.export_bytes", static_cast<double>(warm.telemetry.size()));
  trace_overhead(pps, traced_pps, layers);
  scan_microbenches(kOffpathBits, true, o, traced_ledgers.flashroute, layers,
                    spans);
}

// --- daemon-jobs -------------------------------------------------------------

constexpr int kJobSpecs = 16;      ///< distinct specs the jobs cycle through
constexpr int kJobWindow = 6;      ///< jobs the client keeps outstanding
constexpr int kMaxQueued = 8;      ///< >= kJobWindow: nothing is rejected
constexpr int kSubWindows = 5;     ///< rate samples per measured window
constexpr Nanos kDaemonWarmup = 2'000'000'000;
/// peak_rss_mib is read when this many jobs have completed: the daemon
/// keeps state per finished job, so a later reading would scale with the
/// host's speed instead of with the program.
constexpr std::size_t kRssJobs = 1000;

/// A small keyed FlashRoute job.  Job n runs spec n % kJobSpecs; every
/// fourth job has priority 1, so priority preemption happens at barriers
/// on top of the equal-priority fair-share slicing.
fr::svc::JobSpec job_spec(std::uint64_t seed, std::uint64_t n) {
  const int k = static_cast<int>(n % kJobSpecs);
  fr::svc::JobSpec spec;
  spec.name = format("perfbench-%d", k);
  spec.prefix_bits = 10;
  spec.topology_seed = kWorldSeed + static_cast<std::uint64_t>(k);
  spec.scan_seed = scan_seed(seed) + static_cast<std::uint64_t>(k);
  spec.target_seed = target_seed(seed);
  spec.preprobe_random = k % 2 == 1;
  spec.priority = n % 4 == 3 ? 1 : 0;
  spec.request_key = format("perfbench-%llu-%llu", (unsigned long long)seed,
                            (unsigned long long)n);
  return spec;
}

struct TrackedJob {
  std::uint64_t id = 0;
  std::uint64_t n = 0;
  Nanos submitted = 0;
  Nanos done = 0;
  std::uint64_t probes = 0;
  std::uint64_t slices = 0;
  fr::svc::JobState state = fr::svc::JobState::kQueued;
};

/// Per-job timings folded out of the daemon's JSONL job-event stream.
struct JobEvents {
  Nanos admitted = -1;
  Nanos first_running = -1;
  Nanos slice_start = -1;
  Nanos executing = 0;  ///< summed slice time
  std::uint64_t preemptions = 0;
};

std::map<std::uint64_t, JobEvents> parse_job_events(const std::string& stream) {
  std::map<std::uint64_t, JobEvents> jobs;
  std::istringstream in(stream);
  std::string line;
  const auto field = [&line](const char* key) -> long long {
    const std::size_t at = line.find(key);
    return at == std::string::npos ? -1
                                   : std::atoll(line.c_str() + at + std::strlen(key));
  };
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"job_event\"") == std::string::npos) continue;
    const long long id = field("\"job\":");
    const Nanos t = field("\"t_ns\":");
    const std::size_t at = line.find("\"event\":\"");
    if (id <= 0 || t < 0 || at == std::string::npos) continue;
    const std::string event =
        line.substr(at + 9, line.find('"', at + 9) - (at + 9));
    JobEvents& job = jobs[static_cast<std::uint64_t>(id)];
    if (event == "admitted") {
      job.admitted = t;
    } else if (event == "running" || event == "resumed") {
      if (job.first_running < 0) job.first_running = t;
      job.slice_start = t;
    } else if (event == "preempted" || event == "completed" ||
               event == "failed" || event == "cancelled") {
      if (job.slice_start >= 0) job.executing += t - job.slice_start;
      job.slice_start = -1;
      if (event == "preempted") ++job.preemptions;
    }
  }
  return jobs;
}

fr::svc::DaemonOptions daemon_options(std::ostream* events) {
  fr::svc::DaemonOptions options;
  options.socket_path = g_tmp_dir + "/frd.sock";
  options.archive_path = g_tmp_dir + "/archive.frsj";
  options.journal_path = g_tmp_dir + "/journal.frwj";
  options.state_dir = g_tmp_dir + "/state";
  options.durability = fr::svc::Durability::kFlush;
  options.scheduler.num_workers = 2;
  options.scheduler.max_queued = kMaxQueued;
  options.events = events;
  return options;
}

void workload_daemon(const Options& o, SpanLog& spans, Report& e2e,
                     LayerReport& layers, std::uint64_t& attempted,
                     std::uint64_t& failed) {
  if (g_tmp_dir.size() + 10 > 100) die("work directory path too long for a socket");
  // Only the traced run reads the job-event stream; an untraced run does not
  // hold it, so it stays out of peak_rss_mib.
  std::ostringstream event_stream;
  const fr::svc::DaemonOptions options =
      daemon_options(o.trace ? &event_stream : nullptr);
  // Set-up: uncontended reference runs of every spec, straight through
  // JobRunner (the payloads the daemon's archive must match), then the
  // daemon and its first job.  The cold set-up time runs until that job is
  // seen completed.
  Nanos t0 = mono_ns();
  std::array<std::string, kJobSpecs> direct_payload;
  std::array<double, kJobSpecs> direct_ms{};
  ScanDigest totals;
  for (int k = 0; k < kJobSpecs; ++k) {
    const fr::svc::JobSpec spec = job_spec(o.seed, static_cast<std::uint64_t>(k));
    // Traced runs time each spec five times (median) for the overhead split.
    std::vector<double> run_ms;
    for (int rep = 0; rep < (o.trace ? 5 : 1); ++rep) {
      fr::svc::JobRunner runner(spec);
      const Nanos r0 = mono_ns();
      fr::svc::SliceResult slice = runner.run_slice(
          std::nullopt, [](const fr::io::ScanCheckpoint&) {
            return fr::svc::BarrierDecision::kContinue;
          });
      run_ms.push_back(ms_of(mono_ns() - r0));
      if (slice.outcome != fr::svc::SliceOutcome::kCompleted) {
        die("uncontended JobRunner run did not complete");
      }
      if (rep > 0) continue;
      std::ostringstream payload;
      fr::io::write_archive(slice.result, runner.archive_header(), payload);
      direct_payload[static_cast<std::size_t>(k)] = payload.str();
      totals.probes += slice.result.probes_sent;
      totals.interfaces += slice.result.interfaces.size();
      totals.virtual_ns += slice.result.scan_time;
    }
    direct_ms[static_cast<std::size_t>(k)] = median(run_ms);
  }
  spans.add("setup.direct_runs", t0, mono_ns());

  std::vector<TrackedJob> jobs;
  std::vector<double> submit_rtt_us, status_rtt_us;
  Nanos loop_start = 0;
  Nanos setup_end = 0;
  double rss_mib = 0.0;
  {
    fr::svc::Daemon daemon(options);
    if (!daemon.start()) die("daemon failed to start");
    std::optional<fr::svc::Client> client =
        fr::svc::Client::connect(options.socket_path);
    if (!client || !client->list()) die("cannot reach the daemon");

    // One job, submitted alone, until the client sees it completed.
    TrackedJob first;
    first.submitted = mono_ns();
    const std::optional<fr::svc::Submission> admitted =
        client->submit(job_spec(o.seed, 0));
    if (!admitted || !admitted->admitted) die("first job not admitted");
    first.id = admitted->job_id;
    while (true) {
      const std::optional<fr::svc::JobView> view = client->status(first.id);
      if (!view) die("status failed on the wire");
      if (fr::svc::job_state_terminal(view->state)) {
        first.state = view->state;
        first.probes = view->probes;
        first.slices = view->slices;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    first.done = setup_end = mono_ns();
    jobs.push_back(first);
    spans.add("setup", g_process_start, setup_end);

    // Closed loop: keep kJobWindow jobs outstanding until the window ends,
    // then let the last ones finish.
    loop_start = mono_ns();
    const Nanos window_end =
        loop_start + kDaemonWarmup + static_cast<Nanos>(o.seconds) * 1'000'000'000;
    std::vector<std::size_t> outstanding;
    std::size_t finished = 1;  // the set-up job
    while (true) {
      const Nanos now = mono_ns();
      while (now < window_end && outstanding.size() < kJobWindow) {
        TrackedJob job;
        job.n = jobs.size();
        const Nanos s0 = mono_ns();
        const std::optional<fr::svc::Submission> submission =
            client->submit(job_spec(o.seed, job.n));
        const Nanos s1 = mono_ns();
        if (!submission) die("submit failed on the wire");
        submit_rtt_us.push_back(static_cast<double>(s1 - s0) / 1e3);
        job.id = submission->job_id;
        job.submitted = s0;
        if (!submission->admitted) {
          job.state = fr::svc::JobState::kRejected;
          job.done = s1;
        } else {
          outstanding.push_back(jobs.size());
        }
        jobs.push_back(job);
      }
      if (outstanding.empty()) break;
      if (now > window_end + 60'000'000'000) {
        die("CHECK FAILED: jobs still outstanding 60 s after the window");
      }
      bool progressed = false;
      for (std::size_t i = 0; i < outstanding.size();) {
        TrackedJob& job = jobs[outstanding[i]];
        const Nanos q0 = mono_ns();
        const std::optional<fr::svc::JobView> view = client->status(job.id);
        const Nanos q1 = mono_ns();
        if (!view) die("status failed on the wire");
        status_rtt_us.push_back(static_cast<double>(q1 - q0) / 1e3);
        if (!fr::svc::job_state_terminal(view->state)) {
          ++i;
          continue;
        }
        job.state = view->state;
        job.done = q1;
        job.probes = view->probes;
        job.slices = view->slices;
        outstanding[i] = outstanding.back();
        outstanding.pop_back();
        progressed = true;
        if (++finished == kRssJobs) rss_mib = peak_rss_mib();
      }
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    daemon.request_shutdown();
    daemon.wait();
  }
  const Nanos loop_end = mono_ns();
  spans.add("jobs", loop_start, loop_end,
            format("\"jobs\":%zu", jobs.size()));
  for (const TrackedJob& job : jobs) {
    spans.add("job", job.submitted, job.done,
              format("\"id\":%llu,\"state\":\"%s\"", (unsigned long long)job.id,
                     fr::svc::job_state_name(job.state)));
    ++attempted;
    if (job.state != fr::svc::JobState::kCompleted) ++failed;
  }


  // Every archived payload equals the uncontended run of its spec.
  t0 = mono_ns();
  {
    const fr::io::JobArchive archive(options.archive_path);
    std::string first_payload;
    for (const TrackedJob& job : jobs) {
      if (job.state != fr::svc::JobState::kCompleted) continue;
      const std::optional<std::string> bytes = archive.payload_bytes(job.id);
      require(check_payload(job.id, bytes ? &*bytes : nullptr,
                            direct_payload[job.n % kJobSpecs]));
      if (first_payload.empty() && bytes) first_payload = *bytes;
    }
    if (first_payload.empty()) die("CHECK FAILED: no job completed");
    first_payload[first_payload.size() / 2] ^= 0x01;
    require_rejects("daemon payload",
                    check_payload(jobs[0].id, &first_payload, direct_payload[0]));
    require_rejects("daemon payload (missing)",
                    check_payload(jobs[0].id, nullptr, direct_payload[0]));
  }
  spans.add("check.payloads", t0, mono_ns());

  // Restart on the same state: recovery replays the journal, every job is
  // listed completed and nothing is appended to the archive again.
  const std::uint64_t journal_bytes = file_bytes(options.journal_path);
  const std::uint64_t archive_bytes = file_bytes(options.archive_path);
  const std::size_t journal_records =
      fr::svc::JobJournal(options.journal_path, options.durability)
          .records()
          .size();
  std::uint64_t listed_completed = 0;
  Nanos recovery_ns = 0;
  {
    fr::svc::Daemon daemon(daemon_options(nullptr));
    t0 = mono_ns();
    if (!daemon.start()) die("daemon failed to restart");
    std::optional<fr::svc::Client> client =
        fr::svc::Client::connect(options.socket_path);
    const std::optional<std::vector<fr::svc::JobView>> listed =
        client ? client->list() : std::nullopt;
    recovery_ns = mono_ns() - t0;
    if (!listed) die("cannot list jobs after restart");
    for (const fr::svc::JobView& view : *listed) {
      if (view.state == fr::svc::JobState::kCompleted) ++listed_completed;
    }
    daemon.request_shutdown();
    daemon.wait();
  }
  spans.add("restart", t0, t0 + recovery_ns);
  std::uint64_t completed = 0;
  for (const TrackedJob& job : jobs) {
    completed += job.state == fr::svc::JobState::kCompleted ? 1 : 0;
  }
  require(check_restart(completed, listed_completed, archive_bytes,
                        file_bytes(options.archive_path)));
  require_rejects("daemon restart",
                  check_restart(completed + 1, listed_completed, archive_bytes,
                                archive_bytes));
  require_rejects("daemon restart (archive)",
                  check_restart(completed, completed, archive_bytes,
                                archive_bytes + 1));

  // Rates over kSubWindows equal slices of the measured window (after the
  // warm-up), by the time the client saw each job complete.
  const Nanos measure_start = loop_start + kDaemonWarmup;
  const Nanos slice_ns = static_cast<Nanos>(o.seconds) * 1'000'000'000 / kSubWindows;
  std::array<double, kSubWindows> window_jobs{};
  std::array<double, kSubWindows> window_probes{};
  std::vector<double> latency_ms;
  for (const TrackedJob& job : jobs) {
    if (job.state != fr::svc::JobState::kCompleted || job.done < measure_start) {
      continue;
    }
    const Nanos offset = job.done - measure_start;
    if (offset >= slice_ns * kSubWindows) continue;
    const auto w = static_cast<std::size_t>(offset / slice_ns);
    window_jobs[w] += 1.0;
    window_probes[w] += static_cast<double>(job.probes);
    latency_ms.push_back(ms_of(job.done - job.submitted));
  }
  std::vector<double> jobs_rate, probes_rate;
  for (int w = 0; w < kSubWindows; ++w) {
    jobs_rate.push_back(window_jobs[static_cast<std::size_t>(w)] / s_of(slice_ns));
    probes_rate.push_back(window_probes[static_cast<std::size_t>(w)] /
                          s_of(slice_ns));
  }
  if (latency_ms.empty()) die("CHECK FAILED: no job completed in the window");

  if (!o.trace) {
    e2e.add("peak_rss_mib", rss_mib > 0.0 ? rss_mib : peak_rss_mib(), "MiB");
    e2e.add("virtual_scan_s", s_of(totals.virtual_ns), "s");
    e2e.add("probes_sent", static_cast<double>(totals.probes), "probes");
    e2e.add("interfaces", static_cast<double>(totals.interfaces), "count");
    e2e.add("setup_s", s_of(setup_end - g_process_start), "s");
    return;
  }
  const std::map<std::uint64_t, JobEvents> events =
      parse_job_events(event_stream.str());
  std::vector<double> queue_wait_ms, overhead_ms, slices;
  std::uint64_t preemptions = 0;
  for (const TrackedJob& job : jobs) {
    if (job.state != fr::svc::JobState::kCompleted) continue;
    const auto it = events.find(job.id);
    if (it == events.end()) die("job " + std::to_string(job.id) + " has no events");
    const JobEvents& e = it->second;
    if (e.admitted >= 0 && e.first_running >= 0) {
      queue_wait_ms.push_back(ms_of(e.first_running - e.admitted));
    }
    overhead_ms.push_back(ms_of(e.executing) - direct_ms[job.n % kJobSpecs]);
    slices.push_back(static_cast<double>(job.slices));
    preemptions += e.preemptions;
  }
  const auto n_jobs = static_cast<double>(jobs.size());
  layers.add("probes_per_s", median(probes_rate));
  layers.add("jobs_per_s", median(jobs_rate));
  layers.add("job_latency_p50_ms", median(latency_ms));
  layers.add("svc.submit_rtt_us", median(submit_rtt_us));
  layers.add("svc.submits", static_cast<double>(submit_rtt_us.size()));
  layers.add("svc.queue_wait_ms", median(queue_wait_ms));
  layers.add("svc.job_latency_p90_ms", quantile(latency_ms, 0.9));
  layers.add("svc.status_rtt_us", median(status_rtt_us));
  layers.add("svc.status_calls", static_cast<double>(status_rtt_us.size()));
  layers.add("svc.slices_per_job", median(slices));
  layers.add("svc.preemptions", static_cast<double>(preemptions));
  layers.add("svc.journal_bytes_per_job", static_cast<double>(journal_bytes) / n_jobs);
  layers.add("svc.archive_bytes_per_job", static_cast<double>(archive_bytes) / n_jobs);
  layers.add("svc.jobs", n_jobs);
  layers.add("svc.overhead_ms_per_job", median(overhead_ms));
  layers.add("svc.recovery_ms", ms_of(recovery_ns));
  layers.add("svc.recovery_records", static_cast<double>(journal_records));
  // The daemon runs unchanged in a traced run; only the client's clock
  // reads are added, so untraced and traced rates coincide.
  trace_overhead(jobs_rate, jobs_rate, layers);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse_options(argc, argv);
  std::error_code ec;
  fs::create_directories(o.work, ec);
  g_tmp_dir = o.work + "/tmp-" + std::to_string(::getpid());
  fs::remove_all(g_tmp_dir, ec);
  if (!fs::create_directories(g_tmp_dir, ec)) die("cannot create " + g_tmp_dir);

  SpanLog spans(g_process_start);
  Report e2e;
  LayerReport layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (o.workload == "scan-fullscale") {
    workload_fullscale(o, spans, e2e, layers, attempted);
  } else if (o.workload == "scan-offpath") {
    workload_offpath(o, spans, e2e, layers, attempted);
  } else if (o.workload == "daemon-jobs") {
    workload_daemon(o, spans, e2e, layers, attempted, failed);
  } else {
    die("unknown workload " + o.workload);
  }
  fs::remove_all(g_tmp_dir, ec);
  g_tmp_dir.clear();
  if (o.trace) {
    const std::string path = format("%s/spans-%s-%llu.json", o.work.c_str(),
                                    o.workload.c_str(),
                                    (unsigned long long)o.seed);
    if (!spans.write(path)) die("cannot write " + path);
    std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
  }
  (o.trace ? layers.finish() : e2e).print(attempted, failed);
  return 0;
}
