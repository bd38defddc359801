/// \file driver.cpp
/// Benchmark driver. Runs one named workload through the simulator's
/// public API (sim::make_simulator, Simulator::run, sim::find_saturation,
/// sim::run, SweepRunner::run, the result sinks and the noc::Network
/// accessors), times it, checks every run's output, and prints the raw
/// per-iteration samples as one JSON line. run.py turns the samples into
/// the benchmark's metrics; see README.md for the workloads and metrics.
///
///   perfbench_driver list
///   perfbench_driver setup <workload> <seed> <t0_ns>
///   perfbench_driver run <workload> <seed> <seconds> <trace 0|1>
///
/// `setup` builds the timed run's simulator once and reports the host
/// seconds from <t0_ns> (a CLOCK_MONOTONIC stamp taken by the launcher just
/// before it spawned this process) to the moment the simulator exists,
/// i.e. process start-up plus sim::make_simulator.
///
/// `run` repeats the workload until <seconds> have passed (and at least a
/// few times). With trace=1 every other iteration runs with the host phase
/// profiler on (`prof=on`); the traced iterations supply the per-layer
/// spans and must produce the same digest as the untraced ones.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "noc/network.hpp"
#include "obs/manifest.hpp"
#include "obs/memstats.hpp"
#include "obs/prof.hpp"
#include "sim/saturation.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace nocdvfs;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process, all threads included.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The platform every workload shares: the paper's router (8 VCs x 4 flits,
/// XY routing) and 20-flit packets on uniform traffic.
sim::Scenario paper_platform(int k, std::uint64_t seed) {
  sim::Scenario s;
  s.network.width = k;
  s.network.height = k;
  s.network.num_vcs = 8;
  s.network.vc_buffer_depth = 4;
  s.packet_size = 20;
  s.pattern = "uniform";
  s.seed = seed;
  return s;
}

sim::RunPhases fixed_phases(std::uint64_t warmup, std::uint64_t measure) {
  sim::RunPhases p;
  p.warmup_node_cycles = warmup;
  p.measure_node_cycles = measure;
  p.adaptive_warmup = false;
  return p;
}

/// Saturated 16x16: every router works every cycle, skip-idle finds
/// almost nothing to skip. Router pipeline (SA/VA) bound.
sim::Scenario sat_mesh16(std::uint64_t seed) {
  sim::Scenario s = paper_platform(16, seed);
  s.lambda = 0.5;
  s.policy.policy = sim::Policy::NoDvfs;
  s.control_period = 1000;
  s.phases = fixed_phases(1000, 5000);
  return s;
}

/// The paper's low-load regime on a large mesh: RMSD parks the NoC near
/// its lowest frequency and skip-idle elides about half the tile-steps.
sim::Scenario lowload_mesh32_rmsd(std::uint64_t seed) {
  sim::Scenario s = paper_platform(32, seed);
  s.lambda = 0.01;
  s.policy.policy = sim::Policy::Rmsd;
  s.policy.lambda_max = 0.378;
  s.control_period = 5000;
  s.phases = fixed_phases(5000, 10000);
  return s;
}

/// Quadrant VF islands with per-island DMSD, the thermal loop and every
/// run observer on (windowed telemetry kept in memory, histograms).
sim::Scenario vfi_thermal_obs_16(std::uint64_t seed) {
  sim::Scenario s = paper_platform(16, seed);
  s.lambda = 0.1;
  s.islands = "quadrants";
  s.policy.policy = sim::Policy::Dmsd;
  s.thermal = true;
  s.telemetry = "windows";
  s.hist = "on";
  s.control_period = 2000;
  s.phases = fixed_phases(2000, 8000);
  return s;
}

/// Base scenario of the Fig. 4 campaign on the paper's 5x5 mesh. Keeps the
/// paper's protocol (adaptive warmup until every controller settles),
/// with phases shortened so one campaign takes a few host seconds.
sim::Scenario paper_campaign_5x5(std::uint64_t seed) {
  sim::Scenario s = paper_platform(5, seed);
  s.control_period = 2000;
  s.phases.warmup_node_cycles = 20000;
  s.phases.measure_node_cycles = 20000;
  s.phases.adaptive_warmup = true;
  s.phases.max_warmup_node_cycles = 40000;
  return s;
}

sim::SaturationSearchOptions campaign_saturation_options() {
  sim::SaturationSearchOptions opt;
  opt.warmup_node_cycles = 10000;
  opt.measure_node_cycles = 10000;
  opt.resolution = 0.02;
  return opt;
}

constexpr int kCampaignLoads = 4;
constexpr unsigned kCampaignWorkers = 4;
const std::vector<sim::Policy> kCampaignPolicies = {sim::Policy::NoDvfs, sim::Policy::Rmsd,
                                                    sim::Policy::Dmsd};

struct Workload {
  const char* name;
  sim::Scenario (*scenario)(std::uint64_t seed);
  bool campaign;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"sat_mesh16", sat_mesh16, false},
      {"lowload_mesh32_rmsd", lowload_mesh32_rmsd, false},
      {"paper_campaign_5x5", paper_campaign_5x5, true},
      {"vfi_thermal_obs_16", vfi_thermal_obs_16, false},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Samples, digest, invariants
// ---------------------------------------------------------------------------

/// One iteration of a workload.
struct Sample {
  bool traced = false;
  int runs = 1;    ///< simulator runs this iteration stands for
  int failed = 0;  ///< of those, how many threw or broke a check
  std::string error;
  double wall_s = 0.0;  ///< the timed section
  double cpu_s = 0.0;
  double node_cycles = 0.0;  ///< simulated node cycles of the returned results
  std::string digest;
  std::map<std::string, double> timed;  ///< host seconds / shares (vary run to run)
  std::map<std::string, double> exact;  ///< simulated counts (repeat bit-for-bit)
};

/// FNV-1a over the hexfloat (%a) text of every digested field: any bit of
/// any field changes the digest.
class Digest {
 public:
  void add(const char* name, double v) { text("%s=%a;", name, v); }
  void add_count(const char* name, std::uint64_t v) {
    text("%s=%llu;", name, static_cast<unsigned long long>(v));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  template <typename... Args>
  void text(const char* fmt, Args... args) {
    char buf[160];
    const int n = std::snprintf(buf, sizeof buf, fmt, args...);
    for (int i = 0; i < n && i < static_cast<int>(sizeof buf) - 1; ++i) {
      h_ ^= static_cast<unsigned char>(buf[i]);
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

/// The headline fields of one RunResult.
void digest_result(Digest& d, const sim::RunResult& r) {
  d.add("offered", r.measured_offered_lambda);
  d.add_count("measure_noc_cycles", r.measure_noc_cycles);
  d.add_count("warmup_node_cycles", r.warmup_node_cycles_used);
  d.add_count("packets", r.packets_delivered);
  d.add("avg_delay_ns", r.avg_delay_ns);
  d.add("p99_delay_ns", r.p99_delay_ns);
  d.add("max_delay_ns", r.max_delay_ns);
  d.add("avg_latency", r.avg_latency_cycles);
  d.add("avg_hops", r.avg_hops);
  d.add("throughput", r.delivered_flits_per_node_cycle);
  d.add("occupancy", r.avg_buffer_occupancy);
  d.add("avg_freq_hz", r.avg_frequency_hz);
  d.add("avg_voltage", r.avg_voltage);
  d.add("energy_j", r.power.total_j());
  d.add("energy_per_bit", r.energy_per_bit_pj);
  d.add_count("saturated", r.saturated ? 1 : 0);
  for (const sim::IslandResult& isl : r.islands) {
    d.add("island_freq_hz", isl.avg_frequency_hz);
    d.add("island_energy_j", isl.power.total_j());
  }
  if (r.thermal.enabled) {
    d.add("peak_temp_c", r.thermal.peak_temp_c);
    d.add("mean_temp_c", r.thermal.mean_temp_c);
    d.add_count("throttle_events", r.thermal.throttle_events);
  }
  if (r.telemetry.enabled) {
    d.add_count("telemetry_windows", r.telemetry.windows);
    d.add_count("flits_forwarded", r.telemetry.flits_forwarded);
    d.add_count("stall_switch", r.telemetry.stall_switch);
  }
  if (r.delay_dist.enabled) {
    d.add_count("hist_count", r.delay_dist.delay_ns.count);
    d.add("hist_p99", r.delay_dist.delay_ns.p99);
  }
}

/// Exact simulated counters read through the Network accessors after a run.
void network_counters(const noc::Network& net, const sim::RunResult& r,
                      std::map<std::string, double>& out) {
  const power::ActivityCounters a = net.total_activity();
  std::uint64_t noc_cycles = 0;
  std::uint64_t tile_steps = 0;
  for (int i = 0; i < net.num_islands(); ++i) {
    noc_cycles += net.island_cycles(i);
    tile_steps += net.island_cycles(i) * net.island_tiles(i).size();
  }
  const std::uint64_t skipped = net.idle_steps_skipped();
  auto put = [&](const char* name, std::uint64_t v) { out[name] = static_cast<double>(v); };
  put("noc.link_flit_hops", a.link_flit_hops);
  put("noc.local_flit_hops", a.local_flit_hops);
  put("noc.buffer_writes", a.buffer_writes);
  put("noc.sa_grants", a.sw_alloc_grants);
  put("noc.va_grants", a.vc_alloc_grants);
  put("noc.alloc_requests", a.alloc_requests);
  out["noc.alloc_grant_ratio"] =
      a.alloc_requests == 0 ? 0.0
                            : static_cast<double>(a.sw_alloc_grants + a.vc_alloc_grants) /
                                  static_cast<double>(a.alloc_requests);
  put("noc.noc_cycles", noc_cycles);
  put("noc.tile_steps", tile_steps);
  put("noc.idle_steps_skipped", skipped);
  out["noc.skip_ratio"] =
      tile_steps == 0 ? 0.0 : static_cast<double>(skipped) / static_cast<double>(tile_steps);
  put("noc.packets_delivered", net.total_packets_ejected());
  put("noc.source_backlog_flits", net.total_source_backlog_flits());
  put("traffic.packets_generated", net.total_packets_generated());
  put("sim.warmup_cycles", r.warmup_node_cycles_used);
  out["dvfs.avg_frequency_ghz"] = r.avg_frequency_ghz();
}

void digest_counters(Digest& d, const std::map<std::string, double>& exact) {
  for (const auto& [name, v] : exact) d.add(name.c_str(), v);
}

/// Flit conservation and progress, from the Network accessors. Returns the
/// first violated property, or "" when all hold.
std::string network_problem(const noc::Network& net, const sim::RunResult& r) {
  const std::uint64_t injected = net.total_flits_injected();
  const std::uint64_t ejected = net.total_flits_ejected();
  const std::uint64_t in_net = net.flits_in_network();
  const std::uint64_t dropped = net.total_flits_dropped();
  std::ostringstream os;
  if (injected != ejected + in_net + dropped) {
    os << "flit conservation: injected " << injected << " != ejected " << ejected
       << " + in network " << in_net << " + dropped " << dropped;
  } else if (net.total_flits_generated() < injected) {
    os << "generated " << net.total_flits_generated() << " < injected " << injected;
  } else if (r.packets_delivered == 0) {
    os << "no packet delivered in the measurement window";
  } else if (!(std::isfinite(r.avg_delay_ns) && r.avg_delay_ns > 0.0)) {
    os << "average delay " << r.avg_delay_ns << " ns is not a positive number";
  }
  return os.str();
}

/// Host phase spans the simulator records with prof=on, keyed by the
/// benchmark's per-layer metric names (exclusive time, summed over
/// islands and runs).
void add_profile(const obs::Profile& p, Sample& s) {
  static const std::map<std::string, std::string> kLayer = {
      {"node_domain", "traffic.node_domain_s"}, {"channel_tick", "noc.channel_tick_s"},
      {"island_step", "noc.island_step_s"},     {"deliveries", "sim.deliveries_s"},
      {"control_window", "dvfs.control_window_s"}, {"thermal_step", "thermal.thermal_step_s"},
      {"telemetry_sample", "obs.telemetry_sample_s"}, {"finalize", "sim.finalize_s"},
  };
  for (const obs::PhaseStats& ph : p.phases) {
    const std::string base = ph.name.substr(0, ph.name.find('#'));
    const auto it = kLayer.find(base);
    if (it == kLayer.end()) continue;
    s.timed[it->second] += static_cast<double>(ph.exclusive_ns) * 1e-9;
    if (base == "control_window") s.exact["dvfs.control_windows"] += static_cast<double>(ph.calls);
    if (base == "thermal_step") s.exact["thermal.steps"] += static_cast<double>(ph.calls);
  }
}

/// Per-step host costs of the run whose network counters are reported.
void add_step_costs(const obs::Profile& p, Sample& s) {
  double island_step_s = 0.0;
  for (const obs::PhaseStats& ph : p.phases) {
    if (ph.name.rfind("island_step", 0) == 0) {
      island_step_s += static_cast<double>(ph.exclusive_ns) * 1e-9;
    }
  }
  const double steps = s.exact["noc.tile_steps"] - s.exact["noc.idle_steps_skipped"];
  const double hops = s.exact["noc.link_flit_hops"] + s.exact["noc.local_flit_hops"];
  s.timed["noc.ns_per_tile_step"] = steps > 0 ? island_step_s * 1e9 / steps : 0.0;
  s.timed["noc.ns_per_flit_hop"] = hops > 0 ? island_step_s * 1e9 / hops : 0.0;
}

/// Host seconds to construct a standalone noc::Network of the given shape
/// (the constructor sim::make_simulator runs internally).
double time_network_build(const noc::NetworkConfig& cfg) {
  const auto t = Clock::now();
  const noc::Network net(cfg);
  return seconds_since(t);
}

// ---------------------------------------------------------------------------
// Iterations
// ---------------------------------------------------------------------------

Sample run_single(const Workload& w, std::uint64_t seed, bool traced) {
  Sample s;
  s.traced = traced;
  sim::Scenario sc = w.scenario(seed);
  if (traced) sc.prof = "on";

  auto t = Clock::now();
  std::unique_ptr<sim::Simulator> simu = sim::make_simulator(sc);
  s.timed["sim.make_simulator_s"] = seconds_since(t);
  if (traced) s.timed["noc.build_s"] = time_network_build(simu->config().network);

  const double cpu0 = process_cpu_seconds();
  t = Clock::now();
  const sim::RunResult r = simu->run(sc.phases);
  s.wall_s = seconds_since(t);
  s.cpu_s = process_cpu_seconds() - cpu0;
  s.timed["sim.run_s"] = s.wall_s;
  s.node_cycles = static_cast<double>(simu->clock().node_cycles());

  const noc::Network& net = simu->network();
  network_counters(net, r, s.exact);
  Digest d;
  digest_result(d, r);
  digest_counters(d, s.exact);
  s.digest = d.hex();
  if (traced) {
    add_profile(r.host.profile, s);
    add_step_costs(r.host.profile, s);
  }
  s.error = network_problem(net, r);
  s.failed = s.error.empty() ? 0 : 1;
  return s;
}

/// Times each ResultSink::on_result call of the sink it forwards to.
class TimedSink final : public sim::ResultSink {
 public:
  TimedSink(sim::ResultSink& inner, double& seconds) : inner_(inner), seconds_(seconds) {}
  void begin_sweep(const std::string& group, const std::vector<sim::SweepAxis>& axes) override {
    inner_.begin_sweep(group, axes);
  }
  void on_result(const sim::SweepRecord& record) override {
    const auto t = Clock::now();
    inner_.on_result(record);
    seconds_ += seconds_since(t);
  }
  void end_sweep() override { inner_.end_sweep(); }

 private:
  sim::ResultSink& inner_;
  double& seconds_;
};

std::size_t count_lines(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

/// Per-record properties of one sweep point. `f_max` is the top of the
/// VF curve; no policy may run the NoC faster.
std::string sweep_point_problem(const sim::RunResult& r, double f_max) {
  std::ostringstream os;
  if (r.packets_delivered == 0) {
    os << "no packet delivered";
  } else if (r.dropped_flits != 0) {
    os << r.dropped_flits << " flits dropped on a fault-free mesh";
  } else if (!(std::isfinite(r.avg_delay_ns) && r.avg_delay_ns > 0.0)) {
    os << "average delay " << r.avg_delay_ns << " ns is not a positive number";
  } else if (!(r.avg_frequency_hz > 0.0 && r.avg_frequency_hz <= f_max * (1.0 + 1e-9))) {
    os << "average frequency " << r.avg_frequency_hz << " Hz outside (0, " << f_max << "]";
  }
  return os.str();
}

/// The Fig. 4 method: saturation bisection, the DMSD-target anchor probe,
/// then the load x policy sweep on the SweepRunner pool with CSV and JSONL
/// sinks writing to memory.
Sample run_campaign(const Workload& w, std::uint64_t seed, bool traced) {
  Sample s;
  s.traced = traced;
  sim::Scenario base = w.scenario(seed);
  if (traced) base.prof = "on";

  auto t = Clock::now();
  const std::unique_ptr<sim::Simulator> base_sim = sim::make_simulator(base);
  s.timed["sim.make_simulator_s"] = seconds_since(t);
  const double f_max = base_sim->dvfs_manager().f_max();
  if (traced) s.timed["noc.build_s"] = time_network_build(base.network);

  const double cpu0 = process_cpu_seconds();
  const auto t_all = Clock::now();

  const sim::SaturationSearchOptions sat_opt = campaign_saturation_options();
  t = Clock::now();
  const double lambda_sat = sim::find_saturation(base, sat_opt);
  s.timed["sim.saturation_s"] = seconds_since(t);

  // The anchor probe: No-DVFS at 0.9 lambda_sat. Its delay is DMSD's target
  // and its network supplies the campaign's noc.* counters.
  sim::Scenario probe = base;
  probe.policy.policy = sim::Policy::NoDvfs;
  probe.lambda = 0.9 * lambda_sat;
  t = Clock::now();
  std::unique_ptr<sim::Simulator> probe_sim = sim::make_simulator(probe);
  const sim::RunResult pr = probe_sim->run(probe.phases);
  s.timed["sim.anchor_probe_s"] = seconds_since(t);

  sim::Scenario anchored = base;
  anchored.policy.lambda_max = 0.9 * lambda_sat;
  anchored.policy.target_delay_ns = pr.avg_delay_ns;
  std::vector<double> loads;
  for (int i = 1; i <= kCampaignLoads; ++i) {
    loads.push_back(lambda_sat * 0.95 * i / kCampaignLoads);
  }
  const unsigned workers =
      std::max(1u, std::min(kCampaignWorkers, std::thread::hardware_concurrency()));
  sim::SweepRunner runner(sim::SweepRunner::Options{static_cast<int>(workers)});
  std::ostringstream csv;
  std::ostringstream jsonl;
  sim::CsvResultSink csv_sink(csv);
  sim::JsonlResultSink jsonl_sink(jsonl);
  double sink_s = 0.0;
  TimedSink timed_csv(csv_sink, sink_s);
  TimedSink timed_jsonl(jsonl_sink, sink_s);
  runner.add_sink(timed_csv);
  runner.add_sink(timed_jsonl);
  t = Clock::now();
  const std::vector<sim::SweepRecord> recs = runner.run(
      anchored, {sim::SweepAxis::lambda(loads), sim::SweepAxis::policies(kCampaignPolicies)},
      "campaign");
  s.timed["sim.sweep_s"] = seconds_since(t);
  s.wall_s = seconds_since(t_all);
  s.cpu_s = process_cpu_seconds() - cpu0;
  s.timed["sim.sink_s"] = sink_s;

  const sim::SweepHostReport& host = runner.host_report();
  double busy_s = 0.0;
  double point_max_s = 0.0;
  for (const obs::HostWorkerStats& ws : host.workers) {
    busy_s += static_cast<double>(ws.busy_ns) * 1e-9;
  }
  for (const obs::HostWorkerSpan& sp : host.spans) {
    point_max_s = std::max(point_max_s, static_cast<double>(sp.t1_ns - sp.t0_ns) * 1e-9);
  }
  const double capacity_s = host.wall_s * static_cast<double>(host.workers.size());
  s.timed["sim.sweep_util"] = capacity_s > 0.0 ? busy_s / capacity_s : 0.0;
  s.timed["sim.sweep_idle_s"] = capacity_s - busy_s;
  s.timed["sim.sweep_point_max_s"] = point_max_s;

  // Counters of the anchor probe's network; warmup and frequency over the sweep.
  network_counters(probe_sim->network(), pr, s.exact);
  double run_s = pr.host.wall_s;
  double warmup = 0.0;
  double freq_ghz = 0.0;
  s.node_cycles = static_cast<double>(probe_sim->clock().node_cycles());
  for (const sim::SweepRecord& rec : recs) {
    run_s += rec.result.host.wall_s;
    warmup += static_cast<double>(rec.result.warmup_node_cycles_used);
    freq_ghz += rec.result.avg_frequency_ghz();
    s.node_cycles +=
        static_cast<double>(rec.result.warmup_node_cycles_used + rec.result.measure_node_cycles);
  }
  s.timed["sim.run_s"] = run_s;
  s.exact["sim.warmup_cycles"] = warmup;
  s.exact["dvfs.avg_frequency_ghz"] =
      recs.empty() ? 0.0 : freq_ghz / static_cast<double>(recs.size());

  Digest d;
  d.add("lambda_sat", lambda_sat);
  digest_result(d, pr);
  digest_counters(d, s.exact);
  for (const sim::SweepRecord& rec : recs) digest_result(d, rec.result);
  s.digest = d.hex();

  if (traced) {
    obs::Profile profile = host.profile;
    profile.merge(pr.host.profile);
    add_profile(profile, s);
    add_step_costs(pr.host.profile, s);
  }

  // Checks: every sweep point and the anchor probe count as one run each.
  s.runs = static_cast<int>(recs.size()) + 1;
  std::string first;
  auto fail = [&](const std::string& what) {
    ++s.failed;
    if (first.empty()) first = what;
  };
  const std::string probe_problem = network_problem(probe_sim->network(), pr);
  if (!probe_problem.empty()) fail("anchor probe: " + probe_problem);
  for (const sim::SweepRecord& rec : recs) {
    const std::string p = sweep_point_problem(rec.result, f_max);
    if (!p.empty()) fail("sweep point #" + std::to_string(rec.point.index) + ": " + p);
  }
  std::string global;
  const std::size_t points = kCampaignLoads * kCampaignPolicies.size();
  if (!(lambda_sat > sat_opt.lo && lambda_sat < sat_opt.hi)) {
    global = "lambda_sat " + std::to_string(lambda_sat) + " at a search bound";
  } else if (recs.size() != points) {
    global = "sweep returned " + std::to_string(recs.size()) + " records, expected " +
             std::to_string(points);
  } else if (count_lines(csv.str()) != points + 1 || count_lines(jsonl.str()) != points) {
    global = "sinks wrote " + std::to_string(count_lines(csv.str())) + " CSV and " +
             std::to_string(count_lines(jsonl.str())) + " JSONL lines";
  } else {
    // Fig. 4's frequency ordering: neither DVFS policy runs the NoC faster
    // than No-DVFS at the same load.
    const std::size_t np = kCampaignPolicies.size();
    for (std::size_t i = 0; i < loads.size() && global.empty(); ++i) {
      const double f_none = recs[i * np].result.avg_frequency_hz;
      for (std::size_t p = 1; p < np; ++p) {
        if (recs[i * np + p].result.avg_frequency_hz > f_none * (1.0 + 1e-9)) {
          global = "load " + std::to_string(loads[i]) + ": " +
                   sim::to_string(kCampaignPolicies[p]) + " runs faster than No-DVFS";
        }
      }
    }
  }
  if (!global.empty()) {
    s.failed = s.runs;
    first = global;
  }
  s.error = first;
  return s;
}

Sample run_iteration(const Workload& w, std::uint64_t seed, bool traced) {
  try {
    return w.campaign ? run_campaign(w, seed, traced) : run_single(w, seed, traced);
  } catch (const std::exception& e) {
    Sample s;
    s.traced = traced;
    s.runs = w.campaign ? static_cast<int>(kCampaignLoads * kCampaignPolicies.size()) + 1 : 1;
    s.failed = s.runs;
    s.error = std::string("threw: ") + e.what();
    return s;
  }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_string(const std::string& v) {
  std::string out = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += json_string(k) + ":" + json_number(v);
  }
  return out + "}";
}

int cmd_run(const Workload& w, std::uint64_t seed, double seconds, bool trace) {
  // prof=on runs trigger a once-per-process host calibration spin; pay it
  // here so it lands in no timed section.
  if (trace) (void)obs::host_calib_mops();
  // Iteration 0 is an untraced warm-up (caches, allocator, page faults):
  // it is checked like every other iteration but not timed. At least 3
  // timed iterations follow, or 2 traced + 2 untraced with trace=1.
  const int min_iterations = trace ? 5 : 4;
  const auto start = Clock::now();
  std::vector<Sample> samples;
  while (static_cast<int>(samples.size()) < min_iterations || seconds_since(start) < seconds) {
    const bool traced = trace && samples.size() % 2 == 1;
    samples.push_back(run_iteration(w, seed, traced));
  }

  // Every iteration ran the same inputs, traced or not: digests and exact
  // counters must repeat bit-for-bit.
  const std::string& ref_digest = samples.front().digest;
  const Sample* ref_traced = nullptr;
  for (Sample& s : samples) {
    if (s.failed != 0) continue;
    if (s.digest != ref_digest) {
      s.failed = s.runs;
      s.error = "digest " + s.digest + " differs from the first iteration's " + ref_digest;
      continue;
    }
    if (!s.traced) continue;
    if (ref_traced == nullptr) {
      ref_traced = &s;
    } else if (s.exact != ref_traced->exact) {
      s.failed = s.runs;
      s.error = "exact counters differ between traced iterations";
    }
  }

  std::ostringstream os;
  os << "{\"workload\":" << json_string(w.name) << ",\"seed\":" << seed
     << ",\"trace\":" << (trace ? 1 : 0) << ",\"digest\":" << json_string(ref_digest)
     << ",\"peak_rss_mb\":"
     << json_number(static_cast<double>(obs::sample_process_memory().peak_rss_bytes) / 1048576.0)
     << ",\"samples\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    os << (i ? "," : "") << "{\"warmup\":" << (i == 0 ? "true" : "false")
       << ",\"traced\":" << (s.traced ? "true" : "false")
       << ",\"runs\":" << s.runs << ",\"failed\":" << s.failed
       << ",\"error\":" << json_string(s.error) << ",\"wall_s\":" << json_number(s.wall_s)
       << ",\"cpu_s\":" << json_number(s.cpu_s) << ",\"node_cycles\":" << json_number(s.node_cycles)
       << ",\"digest\":" << json_string(s.digest) << ",\"timed\":" << json_map(s.timed)
       << ",\"exact\":" << json_map(s.exact) << "}";
  }
  os << "]}";
  std::cout << os.str() << std::endl;
  return 0;
}

int cmd_setup(const Workload& w, std::uint64_t seed, std::int64_t t0_ns) {
  const std::unique_ptr<sim::Simulator> simu = sim::make_simulator(w.scenario(seed));
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count();
  std::cout << "{\"setup_s\":" << json_number(static_cast<double>(now_ns - t0_ns) * 1e-9)
            << ",\"nodes\":" << simu->network().num_nodes() << "}" << std::endl;
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench_driver list\n"
               "       perfbench_driver setup <workload> <seed> <t0_ns>\n"
               "       perfbench_driver run <workload> <seed> <seconds> <trace 0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  common::set_log_level(common::LogLevel::Warn);
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 1 && args[0] == "list") {
      for (const Workload& w : workloads()) std::cout << w.name << "\n";
      return 0;
    }
    if (args.size() == 4 && args[0] == "setup") {
      return cmd_setup(find_workload(args[1]), std::stoull(args[2]), std::stoll(args[3]));
    }
    if (args.size() == 5 && args[0] == "run") {
      return cmd_run(find_workload(args[1]), std::stoull(args[2]), std::stod(args[3]),
                     args[4] == "1");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
