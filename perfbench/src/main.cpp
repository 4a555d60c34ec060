// perfbench: run one workload of the translate→simulate benchmark for a fixed
// host-time budget and print every metric by name and unit.
//
//   perfbench --workload <paper_compute|paper_memory|kv_zipf> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 reports the end-to-end metrics from untraced passes. --trace 1
// interleaves untraced and traced passes and reports the per-layer metrics,
// derived from the traced passes' spans (plus bench.trace_overhead, traced ÷
// untraced median pass time). The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/time.h"

namespace {

using perfbench::JobOutcome;
using perfbench::PassResult;
using perfbench::Workload;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Setups per process; setup_s is their median.
constexpr int kSetups = 5;
/// wall_s.tail needs at least 10 passes beyond it.
constexpr std::size_t kMinPasses = 11;
/// Failed jobs described on stderr; the rest are only counted.
constexpr std::size_t kMaxFailureReports = 10;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Peak resident memory of this process image. VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across execve, so it would report the
/// launching process's footprint whenever that was larger.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double makespanMs(const JobOutcome& job) {
  return hsm::sim::ticksToMilliseconds(job.result.makespan);
}

/// Job labels of every workload, so each run reports the same per-job names
/// (zero for jobs another workload owns).
std::vector<std::string> allJobLabels() {
  std::vector<std::string> labels;
  for (const std::string& name : perfbench::workloadNames()) {
    for (const perfbench::Job& job : perfbench::makeWorkload(name, 0).jobs) {
      labels.push_back(job.label);
    }
  }
  return labels;
}

// ---------------------------------------------------------------------------
// Simulated figures (deterministic: taken from one pass)
// ---------------------------------------------------------------------------

struct SimFigures {
  double makespan_geomean_ms = 0.0;  ///< over the RCCE jobs
  double mpb_gain = 0.0;             ///< Fig 6.2 geomean off-chip ÷ MPB
  double fig61_err = 0.0;            ///< exp(mean |ln(sim ÷ paper)|) − 1
};

SimFigures simFigures(const Workload& w, const PassResult& pass) {
  SimFigures f;
  std::vector<double> rcce_ms;
  std::vector<double> gains;
  double abs_log_err = 0.0;
  int paper_count = 0;
  for (std::size_t p = 0; p < w.programs.size(); ++p) {
    double pthread = 0.0;
    double offchip = 0.0;
    double mpb = 0.0;
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
      if (w.jobs[j].program != p) continue;
      const double ms = makespanMs(pass.jobs[j]);
      switch (w.jobs[j].mode) {
        case hsm::workloads::Mode::PthreadSingleCore: pthread = ms; break;
        case hsm::workloads::Mode::RcceOffChip: offchip = ms; rcce_ms.push_back(ms); break;
        case hsm::workloads::Mode::RcceMpb: mpb = ms; rcce_ms.push_back(ms); break;
      }
    }
    if (offchip > 0.0 && mpb > 0.0) gains.push_back(offchip / mpb);
    const double paper = perfbench::paperSpeedup(w.programs[p].name);
    if (paper > 0.0 && pthread > 0.0 && offchip > 0.0) {
      abs_log_err += std::fabs(std::log(pthread / offchip / paper));
      ++paper_count;
    }
  }
  f.makespan_geomean_ms = geomean(rcce_ms);
  f.mpb_gain = geomean(gains);
  f.fig61_err = paper_count > 0 ? std::exp(abs_log_err / paper_count) - 1.0 : 0.0;
  return f;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the traced passes
// ---------------------------------------------------------------------------

std::vector<Metric> layerMetrics(const Workload& w, const std::vector<perfbench::Span>& spans,
                                 const PassResult& sample, double traced_p50_s,
                                 double untraced_p50_s, std::size_t failed,
                                 std::size_t attempted) {
  // Host time: per traced pass, sum each layer's spans; report the median
  // over passes. Self times split Benchmark::run from the Engine::run wall
  // inside it.
  const std::vector<double> self = perfbench::selfTimesMs(spans);
  std::map<int, std::map<std::string, double>> per_pass;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    std::map<std::string, double>& m = per_pass[s.pass];
    if (s.name == "workloads.run") {
      m["workloads.self_ms"] += self[i];
      m["job." + s.label + ".wall_ms"] += s.durationMs();
    } else if (s.name == "threadrt.run") {
      m["threadrt.pthread_ms"] += s.durationMs();
      m["job." + s.label + ".wall_ms"] += s.durationMs();
    } else if (s.name != "pass") {
      m[s.name + "_ms"] += s.durationMs();
    }
  }
  const auto hostMs = [&](const std::string& name) {
    std::vector<double> values;
    for (const auto& [pass, m] : per_pass) {
      const auto it = m.find(name);
      values.push_back(it == m.end() ? 0.0 : it->second);
    }
    return median(values);
  };

  // Work counters: deterministic, so one pass gives them exactly.
  std::map<std::string, std::uint64_t> sums;
  std::uint64_t mc_units = 0;
  double load_cv = 0.0;  // the most skewed job's
  for (const JobOutcome& job : sample.jobs) {
    if (job.pthread) continue;
    for (const auto& [name, value] : job.result.metrics.sim_counters) sums[name] += value;
    for (const std::uint64_t units : job.result.controller_traffic) mc_units += units;
    load_cv = std::max(load_cv, job.result.controller_load_cv);
  }
  const std::uint64_t events = sums["events"];
  const auto sum = [&](const char* name) { return static_cast<double>(sums[name]); };
  const double units = sum("shm_words") + sum("mpb_chunks");
  const double unit_events = sum("shm_word_events") + sum("mpb_chunk_events");
  const double sim_ms = hostMs("sim.run_ms");
  const SimFigures fig = simFigures(w, sample);

  std::vector<Metric> out = {
      {"wall_s.p50", untraced_p50_s, "s"},
      {"translator.lex_ms", hostMs("translator.lex_ms"), "ms"},
      {"translator.parse_ms", hostMs("translator.parse_ms"), "ms"},
      {"translator.analyze_ms", hostMs("translator.analyze_ms"), "ms"},
      {"translator.translate_ms", hostMs("translator.translate_ms"), "ms"},
      {"translator.out_bytes", static_cast<double>(sample.translated_bytes), "bytes"},
      {"partition.lint_ms", hostMs("partition.lint_ms"), "ms"},
      {"partition.lint_findings", static_cast<double>(sample.lint_findings), "count"},
      {"workloads.self_ms", hostMs("workloads.self_ms"), "ms"},
      {"workloads.zipf_ms", hostMs("workloads.zipf_ms"), "ms"},
      {"workloads.kv_reference_ms", hostMs("workloads.kv_reference_ms"), "ms"},
      {"threadrt.pthread_ms", hostMs("threadrt.pthread_ms"), "ms"},
      {"sim.run_ms", sim_ms, "ms"},
      {"sim.events", static_cast<double>(events), "count"},
      {"sim.ns_per_event", events > 0 ? sim_ms * 1e6 / static_cast<double>(events) : 0.0,
       "ns"},
      {"machine.shm_words", sum("shm_words"), "count"},
      {"machine.shm_word_events", sum("shm_word_events"), "count"},
      {"machine.shm_bulk_lines", sum("shm_bulk_lines"), "count"},
      {"machine.mpb_chunks", sum("mpb_chunks"), "count"},
      {"machine.mpb_chunk_events", sum("mpb_chunk_events"), "count"},
      {"machine.coalescing_rate", units > 0.0 ? 1.0 - unit_events / units : 0.0, "ratio"},
      {"machine.mc_units", static_cast<double>(mc_units), "count"},
      {"machine.controller_load_cv", load_cv, "ratio"},
      {"machine.mpb_scope_violations", sum("mpb_scope_violations"), "count"},
      {"swcache.word_accesses", sum("swcache_word_accesses"), "count"},
      {"swcache.hit_rate",
       sums["swcache_word_accesses"] > 0
           ? sum("swcache_word_hits") / sum("swcache_word_accesses")
           : 0.0,
       "ratio"},
      {"swcache.line_fills", sum("swcache_line_fills"), "count"},
      {"swcache.writebacks", sum("swcache_writebacks"), "count"},
      {"swcache.line_events", sum("swcache_line_events"), "count"},
  };
  for (const std::string& label : allJobLabels()) {
    double makespan = 0.0;
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
      if (w.jobs[j].label == label) makespan = makespanMs(sample.jobs[j]);
    }
    out.push_back({"job." + label + ".wall_ms", hostMs("job." + label + ".wall_ms"), "ms"});
    out.push_back({"job." + label + ".makespan_ms", makespan, "sim_ms"});
  }
  out.push_back({"bench.trace_overhead",
                 untraced_p50_s > 0.0 ? traced_p50_s / untraced_p50_s : 0.0, "ratio"});
  out.push_back({"mpb_gain", fig.mpb_gain, "ratio"});
  out.push_back({"fig61_err", fig.fig61_err, "ratio"});
  out.push_back({"fail_ratio",
                 attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                               : 0.0,
                 "ratio"});
  return out;
}

// ---------------------------------------------------------------------------

bool parseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

struct TailStat {
  double value = 0.0;
  double percentile = 0.0;
};

/// The highest percentile of `walls` with at least 10 samples above it.
TailStat tail(std::vector<double> walls) {
  std::sort(walls.begin(), walls.end());
  const std::size_t n = walls.size();
  if (n < kMinPasses) return {};
  const std::size_t rank = n - 10;  // 1-based rank; n - rank samples lie above it
  return {walls[rank - 1], 100.0 * static_cast<double>(rank) / static_cast<double>(n)};
}

int run(const Options& o) {
  // Set-up: build the workload's inputs and benchmark objects and run one
  // warm-up pass, kSetups times; the first warm-up's outputs are the
  // reference every later pass must reproduce.
  std::vector<double> setup_s;
  std::vector<std::string> reference;
  std::uint64_t reference_digest = 0;
  bool setup_ok = true;
  Workload w;
  perfbench::Tracer untraced(false);
  for (int s = 0; s < kSetups; ++s) {
    const auto t0 = std::chrono::steady_clock::now();
    w = perfbench::makeWorkload(o.workload, o.seed);
    perfbench::PassOptions po;
    po.pass_id = -1 - s;
    po.reference = reference.empty() ? nullptr : &reference;
    const PassResult warm = perfbench::runPass(w, untraced, po);
    setup_s.push_back(secondsSince(t0));
    if (reference.empty()) {
      for (const JobOutcome& job : warm.jobs) reference.push_back(job.sim_outputs);
      reference_digest = warm.digest;
    }
    for (const JobOutcome& job : warm.jobs) {
      if (job.ok) continue;
      setup_ok = false;
      std::fprintf(stderr, "warm-up job %s failed: %s\n", job.label.c_str(),
                   job.failure.c_str());
    }
  }

  // Timed passes. With --trace 1, untraced and traced passes alternate so
  // both see the same host conditions.
  perfbench::Tracer traced(true);
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool digest_stable = true;
  PassResult sample;
  const auto t_start = std::chrono::steady_clock::now();
  for (int pass = 0;; ++pass) {
    if (untraced_walls.size() >= kMinPasses && secondsSince(t_start) >= o.seconds) break;
    const bool use_trace = o.trace && pass % 2 == 1;
    perfbench::PassOptions po;
    po.pass_id = pass;
    po.reference = &reference;
    PassResult r = perfbench::runPass(w, use_trace ? traced : untraced, po);
    (use_trace ? traced_walls : untraced_walls).push_back(r.wall_s);
    attempted += r.jobs.size();
    failed += r.failed();
    for (const JobOutcome& job : r.jobs) {
      if (!job.ok && failed <= kMaxFailureReports) {
        std::fprintf(stderr, "pass %d job %s failed: %s\n", pass, job.label.c_str(),
                     job.failure.c_str());
      }
    }
    digest_stable = digest_stable && r.digest == reference_digest;
    if (pass == 0) sample = std::move(r);
  }

  const SimFigures fig = simFigures(w, sample);
  const double untraced_p50 = median(untraced_walls);
  const TailStat tail_stat = tail(untraced_walls);
  // The median pass time is printed but not an end-to-end metric: on a
  // shared host it flips between a contended and an uncontended mode from
  // run to run, while the tail and the set-up median stay steady.
  std::vector<Metric> end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"wall_s.tail", tail_stat.value, "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"sim_makespan_ms", fig.makespan_geomean_ms, "sim_ms"},
  };

  std::printf("perfbench workload=%s seed=%llu trace=%d seconds=%g\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0, o.seconds);
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    const JobOutcome& job = sample.jobs[j];
    std::printf("job %-26s makespan %10.6f ms  verified=%s\n", job.label.c_str(),
                makespanMs(job), job.result.verified ? "yes" : "NO");
  }
  std::printf("passes untraced=%zu traced=%zu setups=%d\n", untraced_walls.size(),
              traced_walls.size(), kSetups);
  std::printf("wall_s.tail is p%.1f of %zu untraced passes; their median is %.6g s\n",
              tail_stat.percentile, untraced_walls.size(), untraced_p50);
  if (fig.mpb_gain > 0.0) {
    std::printf("mpb_gain %.4f (paper: ~%.0fx suite mean)  fig61_err %.4f\n", fig.mpb_gain,
                perfbench::kFig62MeanGain, fig.fig61_err);
  }
  std::printf("fail_ratio %zu/%zu (failed/attempted jobs)\n", failed, attempted);
  std::printf("sim_digest %s %s (%s across all passes)\n", o.workload.c_str(),
              perfbench::hex64(reference_digest).c_str(),
              digest_stable ? "identical" : "DIFFERS");
  for (const Metric& m : end_to_end) {
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::vector<Metric> reported = end_to_end;
  if (o.trace) {
    reported = layerMetrics(w, traced.spans(), sample, median(traced_walls), untraced_p50,
                            failed, attempted);
    for (const Metric& m : reported) {
      std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!o.trace_out.empty()) {
      std::ofstream file(o.trace_out);
      file << traced.toJson();
      if (!file) {
        std::fprintf(stderr, "cannot write trace to %s\n", o.trace_out.c_str());
        return 1;
      }
    }
  }

  const bool correct = setup_ok && failed == 0 && digest_stable;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    const Metric& m = reported[i];
    json += "\"" + m.name + "\": {\"value\": " + perfbench::formatDouble(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parseArgs(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
