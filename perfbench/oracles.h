// Output oracles of the performance benchmark.
//
// Each oracle checks a scan's or a job's output against something computed
// apart from the engine (packets counted at the runtime boundary, response
// bytes parsed independently, a second uncontended execution) or against a
// property of the method itself.  An oracle returns an empty string when
// the output passes and a one-line reason when it does not; every run
// also feeds each one a doctored copy of real data and requires a rejection
// (require_rejects in perfbench.cc), so an oracle that accepts everything
// fails the run.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/result.h"
#include "layers.h"
#include "sim/fault_plane.h"
#include "sim/network.h"

namespace perfbench {

inline std::string format(const char* fmt, auto... args) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer), fmt, args...);
  return buffer;
}

inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t hash = 0xCBF29CE484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// What two executions of the same scan must agree on.
struct ScanDigest {
  std::uint64_t probes = 0;
  std::uint64_t interfaces = 0;
  flashroute::util::Nanos virtual_ns = 0;
  std::uint64_t routes = 0;  ///< interfaces, routes and distances, hashed

  bool operator==(const ScanDigest&) const = default;
};

inline ScanDigest digest_of(const flashroute::core::ScanResult& result) {
  ScanDigest d;
  d.probes = result.probes_sent;
  d.interfaces = result.interfaces.size();
  d.virtual_ns = result.scan_time;
  std::vector<std::uint32_t> sorted(result.interfaces.begin(),
                                    result.interfaces.end());
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t h = fnv1a(sorted.data(), sorted.size() * sizeof(std::uint32_t));
  for (const auto& route : result.routes) {
    std::vector<std::uint64_t> hops;
    hops.reserve(route.size());
    for (const auto& hop : route) {
      hops.push_back(std::uint64_t{hop.ip} << 16 | std::uint64_t{hop.ttl} << 8 |
                     hop.flags);
    }
    std::sort(hops.begin(), hops.end());
    const std::uint64_t count = hops.size();
    h = fnv1a(&count, sizeof(count), h);
    h = fnv1a(hops.data(), hops.size() * sizeof(std::uint64_t), h);
  }
  h = fnv1a(result.destination_distance.data(),
            result.destination_distance.size(), h);
  h = fnv1a(result.trigger_ttl.data(), result.trigger_ttl.size(), h);
  d.routes = h;
  return d;
}

inline std::string check_determinism(const char* what, const ScanDigest& a,
                                     const ScanDigest& b) {
  if (a == b) return {};
  return format("%s: executions differ (probes %llu vs %llu, interfaces %llu "
                "vs %llu, virtual %lld vs %lld ns, digest %016llx vs %016llx)",
                what, (unsigned long long)a.probes, (unsigned long long)b.probes,
                (unsigned long long)a.interfaces,
                (unsigned long long)b.interfaces, (long long)a.virtual_ns,
                (long long)b.virtual_ns, (unsigned long long)a.routes,
                (unsigned long long)b.routes);
}

/// Conservation: the engine's probe count equals the packets counted at the
/// decorator, and those equal what the simulated network saw once the
/// fault plane's local send failures are added back.
inline std::string check_conservation(
    const char* what, std::uint64_t result_probes,
    const BoundaryStats& boundary, std::uint64_t decorator_sent,
    const flashroute::sim::NetworkStats& network,
    const flashroute::sim::FaultPlane::Stats& faults) {
  if (result_probes != decorator_sent) {
    return format("%s: ScanResult::probes_sent %llu != %llu packets sent "
                  "through the runtime",
                  what, (unsigned long long)result_probes,
                  (unsigned long long)decorator_sent);
  }
  if (decorator_sent + boundary.send_failures != boundary.probes()) {
    return format("%s: %llu sent + %llu failed != %llu submitted", what,
                  (unsigned long long)decorator_sent,
                  (unsigned long long)boundary.send_failures,
                  (unsigned long long)boundary.probes());
  }
  if (network.probes != decorator_sent ||
      faults.sends_failed != boundary.send_failures) {
    return format("%s: network saw %llu probes (%llu local send failures), "
                  "runtime boundary sent %llu (%llu failures)",
                  what, (unsigned long long)network.probes,
                  (unsigned long long)faults.sends_failed,
                  (unsigned long long)decorator_sent,
                  (unsigned long long)boundary.send_failures);
  }
  return {};
}

/// Soundness: every reported interface sent at least one ICMP
/// time-exceeded that crossed the sink, and no more destinations are
/// reported reached than distinct port-unreachable sources were seen.
inline std::string check_soundness(const char* what,
                                   const flashroute::core::ScanResult& result,
                                   const ResponseLedger& ledger) {
  std::uint64_t unsupported = 0;
  std::uint32_t example = 0;
  for (const std::uint32_t ip : result.interfaces) {
    if (!ledger.saw_time_exceeded_from(ip)) {
      if (unsupported++ == 0) example = ip;
    }
  }
  if (unsupported != 0) {
    return format("%s: %llu reported interfaces (e.g. %u.%u.%u.%u) never sent "
                  "a time-exceeded through the sink",
                  what, (unsigned long long)unsupported, example >> 24,
                  (example >> 16) & 0xFF, (example >> 8) & 0xFF, example & 0xFF);
  }
  if (result.interfaces.empty()) return format("%s: no interfaces found", what);
  if (result.destinations_reached > ledger.distinct_port_unreachable()) {
    return format("%s: %llu destinations reached but only %llu distinct "
                  "port-unreachable sources",
                  what, (unsigned long long)result.destinations_reached,
                  (unsigned long long)ledger.distinct_port_unreachable());
  }
  return {};
}

/// The paper's comparison (Table 3): FlashRoute needs fewer probes than
/// Yarrp, and Yarrp's stateless walk sends at least exhaustive_ttl probes
/// to every scanned /24.
inline std::string check_paper_property(std::uint64_t flashroute_probes,
                                        std::uint64_t yarrp_probes,
                                        std::uint64_t exhaustive_ttl,
                                        std::uint64_t scanned_prefixes) {
  if (flashroute_probes >= yarrp_probes) {
    return format("paper property: FlashRoute sent %llu probes, not fewer "
                  "than Yarrp's %llu",
                  (unsigned long long)flashroute_probes,
                  (unsigned long long)yarrp_probes);
  }
  if (yarrp_probes < exhaustive_ttl * scanned_prefixes) {
    return format("paper property: Yarrp sent %llu probes, fewer than "
                  "%llu TTLs x %llu /24s",
                  (unsigned long long)yarrp_probes,
                  (unsigned long long)exhaustive_ttl,
                  (unsigned long long)scanned_prefixes);
  }
  return {};
}

/// Pulls `"name":<integer>` pairs out of the "counters" object of an
/// exported telemetry summary line.
inline std::map<std::string, std::uint64_t> summary_counters(
    const std::string& jsonl) {
  std::map<std::string, std::uint64_t> counters;
  const std::size_t summary = jsonl.rfind("{\"type\":\"summary\"");
  if (summary == std::string::npos) return counters;
  std::size_t pos = jsonl.find("\"counters\":{", summary);
  if (pos == std::string::npos) return counters;
  pos += 12;
  while (pos < jsonl.size() && jsonl[pos] == '"') {
    const std::size_t name_end = jsonl.find('"', pos + 1);
    if (name_end == std::string::npos || jsonl[name_end + 1] != ':') break;
    const std::string name = jsonl.substr(pos + 1, name_end - pos - 1);
    char* end = nullptr;
    counters[name] = std::strtoull(jsonl.c_str() + name_end + 2, &end, 10);
    pos = static_cast<std::size_t>(end - jsonl.c_str());
    if (jsonl[pos] == ',') ++pos;
  }
  return counters;
}

/// Telemetry: the exported summary counters equal ScanResult's counters.
inline std::string check_telemetry(const std::string& jsonl,
                                   const flashroute::core::ScanResult& result) {
  const auto counters = summary_counters(jsonl);
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"scan.probes_sent", result.probes_sent},
      {"scan.preprobe_probes", result.preprobe_probes},
      {"scan.responses", result.responses},
      {"scan.destinations_reached", result.destinations_reached},
      {"scan.interfaces_discovered", result.interfaces.size()},
      {"scan.convergence_stops", result.convergence_stops},
      {"scan.retransmits", result.retransmits},
      {"scan.probe_timeouts", result.probe_timeouts},
      {"scan.rate_backoffs", result.rate_backoffs},
  };
  for (const auto& [name, value] : expected) {
    const auto it = counters.find(name);
    if (it == counters.end()) {
      return format("telemetry: exported summary lacks %s", name);
    }
    if (it->second != value) {
      return format("telemetry: exported %s = %llu, ScanResult has %llu", name,
                    (unsigned long long)it->second, (unsigned long long)value);
    }
  }
  return {};
}

/// Daemon: an archived job payload equals the uncontended run's bytes.
inline std::string check_payload(std::uint64_t job_id,
                                 const std::string* archived,
                                 const std::string& direct) {
  if (archived == nullptr) {
    return format("daemon: job %llu has no archived payload",
                  (unsigned long long)job_id);
  }
  if (*archived != direct) {
    return format("daemon: job %llu payload (%zu bytes) differs from the "
                  "uncontended JobRunner run (%zu bytes)",
                  (unsigned long long)job_id, archived->size(), direct.size());
  }
  return {};
}

/// Daemon restart: every job comes back completed and the archive has not
/// grown (nothing ran twice).
inline std::string check_restart(std::uint64_t jobs, std::uint64_t completed,
                                 std::uint64_t archive_before,
                                 std::uint64_t archive_after) {
  if (completed != jobs) {
    return format("daemon restart: %llu of %llu jobs listed completed",
                  (unsigned long long)completed, (unsigned long long)jobs);
  }
  if (archive_after != archive_before) {
    return format("daemon restart: archive grew from %llu to %llu bytes",
                  (unsigned long long)archive_before,
                  (unsigned long long)archive_after);
  }
  return {};
}

}  // namespace perfbench
