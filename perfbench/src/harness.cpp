#include "harness.h"

#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "ast/context.h"
#include "lex/lexer.h"
#include "parse/parser.h"
#include "partition/drf_lint.h"
#include "support/diagnostics.h"
#include "support/source.h"
#include "translator/translator.h"

namespace perfbench {
namespace {

using hsm::partition::ControllerPlacement;
using hsm::partition::ExecutionPlan;
using hsm::partition::MpbPattern;
using hsm::partition::PlacementClass;
using hsm::partition::RegionPlan;

constexpr wl::Mode kPaperModes[] = {wl::Mode::PthreadSingleCore, wl::Mode::RcceOffChip,
                                    wl::Mode::RcceMpb};

Workload paperWorkload(const std::string& name,
                       std::vector<std::unique_ptr<wl::Benchmark>> benches) {
  Workload w;
  w.name = name;
  for (auto& bench : benches) {
    const std::string bench_name = bench->name();
    for (const wl::Mode mode : kPaperModes) {
      w.jobs.push_back(Job{bench_name + "." + wl::modeName(mode), w.programs.size(), mode,
                           nullptr});
    }
    w.programs.push_back(
        Program{bench_name, wl::pthreadSource(bench_name), std::move(bench)});
  }
  return w;
}

/// The KV store's regions with `kv_index` and `kv_slots` mapped to
/// controllers by `placement` (the shape setupKvRcce realizes).
std::shared_ptr<const ExecutionPlan> kvPlan(const wl::KvParams& p,
                                            ControllerPlacement placement) {
  std::size_t index_cap = 1;
  while (index_cap < 2 * static_cast<std::size_t>(p.num_keys)) index_cap *= 2;
  const std::size_t slab_bytes = static_cast<std::size_t>(p.num_keys) * 4 * 8;
  return std::make_shared<const ExecutionPlan>(ExecutionPlan{
      {RegionPlan{"kv_index", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                  index_cap * 8, placement},
       RegionPlan{"kv_slots", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                  slab_bytes, placement},
       RegionPlan{"kv_checks", PlacementClass::kOffChipUncached, MpbPattern::kNone,
                  static_cast<std::size_t>(kUnits) * 8}}});
}

Workload kvWorkload(std::uint64_t seed) {
  Workload w;
  w.name = "kv_zipf";
  w.has_kv = true;
  w.kv.seed ^= seed;
  w.programs.push_back(Program{"kv", "", wl::makeKvStore(w.kv)});
  w.jobs.push_back(Job{"kv.owner-compute", 0, wl::Mode::RcceOffChip,
                       kvPlan(w.kv, ControllerPlacement::kOwnerCompute)});
  w.jobs.push_back(
      Job{"kv.striped", 0, wl::Mode::RcceOffChip, kvPlan(w.kv, ControllerPlacement::kStriped)});
  return w;
}

/// Scoped span: opens on construction, closes on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, std::string label, int parent, int pass)
      : tracer_(tracer), id_(tracer.begin(std::move(name), std::move(label), parent, pass)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// The translator's stages timed one public call at a name: lexAll,
/// parseSource and analyzeOnly. Traced passes only, so an untraced pass is
/// exactly the translate → lint → run → verify pipeline.
void probeTranslatorStages(const Program& program, Tracer& tracer, int parent, int pass) {
  const std::string file = program.name + ".c";
  const hsm::SourceBuffer buffer(file, program.source);
  {
    SpanScope span(tracer, "translator.lex", program.name, parent, pass);
    hsm::DiagnosticEngine diags;
    hsm::lex::Lexer lexer(buffer, diags);
    const hsm::lex::LexResult lexed = lexer.lexAll();
    if (lexed.tokens.empty()) throw std::runtime_error("lexer produced no tokens");
  }
  {
    SpanScope span(tracer, "translator.parse", program.name, parent, pass);
    hsm::DiagnosticEngine diags;
    hsm::ast::ASTContext context;
    if (!hsm::parse::parseSource(buffer, context, diags)) {
      throw std::runtime_error("parse failed: " + program.name);
    }
  }
  {
    SpanScope span(tracer, "translator.analyze", program.name, parent, pass);
    const hsm::translator::TranslationResult analyzed =
        hsm::translator::Translator().analyzeOnly(program.source, file);
    if (!analyzed.ok) throw std::runtime_error("analysis failed: " + program.name);
  }
}

/// "chk0=<n>" from a KvStore result's detail: UE 0's simulated get checksum.
std::uint64_t kvChk0(const std::string& detail) {
  const std::size_t at = detail.find("chk0=");
  if (at == std::string::npos) return 0;
  return std::strtoull(detail.c_str() + at + 5, nullptr, 10);
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Canonical rendering of a RunResult's simulated outputs.
std::string simOutputs(const wl::RunResult& r) {
  std::ostringstream out;
  out << r.benchmark << ' ' << wl::modeName(r.mode) << " units=" << r.units
      << " makespan=" << r.makespan << " verified=" << r.verified << " detail=" << r.detail
      << " mc=";
  for (const std::uint64_t units : r.controller_traffic) out << units << ',';
  for (const auto& [name, value] : r.metrics.sim_counters) out << ' ' << name << '=' << value;
  for (const auto& [name, value] : r.metrics.sim_gauges) {
    out << ' ' << name << '=' << formatDouble(value);
  }
  return out.str();
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"paper_compute", "paper_memory",
                                                 "kv_zipf"};
  return names;
}

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_compute") {
    std::vector<std::unique_ptr<wl::Benchmark>> benches;
    benches.push_back(wl::makePiApprox(1.0));
    benches.push_back(wl::makeSum35(1.0));
    benches.push_back(wl::makeCountPrimes(1.0));
    return paperWorkload(name, std::move(benches));
  }
  if (name == "paper_memory") {
    std::vector<std::unique_ptr<wl::Benchmark>> benches;
    benches.push_back(wl::makeStream(1.0));
    benches.push_back(wl::makeDotProduct(1.0));
    benches.push_back(wl::makeLuDecomposition(1.0));
    return paperWorkload(name, std::move(benches));
  }
  if (name == "kv_zipf") return kvWorkload(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::nowMs() const {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::begin(std::string name, std::string label, int parent, int pass) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), std::move(label), nowMs(), 0.0, parent, pass});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ms = nowMs();
}

void Tracer::addKnown(std::string name, std::string label, int parent, double start_ms,
                      double duration_ms) {
  if (!enabled_) return;
  const int pass = parent >= 0 ? spans_[static_cast<std::size_t>(parent)].pass : 0;
  spans_.push_back(Span{std::move(name), std::move(label), start_ms, start_ms + duration_ms,
                        parent, pass});
}

std::string Tracer::toJson() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.label
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << formatDouble(s.start_ms * 1e3)
        << ",\"dur\":" << formatDouble(s.durationMs() * 1e3) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"pass\":" << s.pass << "}}";
  }
  out << "]}\n";
  return out.str();
}

std::vector<double> selfTimesMs(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].durationMs();
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.durationMs();
  }
  return self;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

std::size_t PassResult::failed() const {
  std::size_t n = 0;
  for (const JobOutcome& job : jobs) n += job.ok ? 0 : 1;
  return n;
}

std::string formatDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string hex64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

PassResult runPass(const Workload& workload, Tracer& tracer, const PassOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  const int pass_id = options.pass_id;
  const int root = tracer.begin("pass", workload.name, -1, pass_id);
  const hsm::sim::SccConfig config;

  PassResult pass;
  // Translate and lint every program that has a source; a failure here
  // fails every job of that program.
  std::vector<hsm::translator::TranslationResult> translated(workload.programs.size());
  std::vector<std::string> program_failure(workload.programs.size());
  for (std::size_t p = 0; p < workload.programs.size(); ++p) {
    const Program& program = workload.programs[p];
    if (program.source.empty()) continue;
    try {
      if (tracer.enabled()) probeTranslatorStages(program, tracer, root, pass_id);
      {
        SpanScope span(tracer, "translator.translate", program.name, root, pass_id);
        translated[p] =
            hsm::translator::Translator().translate(program.source, program.name + ".c");
      }
      if (!translated[p].ok) {
        program_failure[p] = "translation failed: " + translated[p].diagnostics;
        continue;
      }
      pass.translated_bytes += translated[p].output_source.size();
      SpanScope span(tracer, "partition.lint", program.name, root, pass_id);
      const hsm::partition::LintResult lint = hsm::partition::lintSharingTables(
          translated[p].analysis, translated[p].execution_plan, config.cache_line_bytes);
      pass.lint_findings += lint.findings.size();
      if (!lint.ok()) program_failure[p] = "lint findings:\n" + lint.format();
    } catch (const std::exception& e) {
      program_failure[p] = std::string("translator threw: ") + e.what();
    }
  }

  // The KV store's host-side costs: the per-UE Zipf CDFs its kernel builds
  // on every run, and the reference checksums its outputs are checked
  // against.
  std::vector<std::uint64_t> kv_reference;
  if (workload.has_kv) {
    {
      SpanScope span(tracer, "workloads.zipf", "kv", root, pass_id);
      std::vector<wl::ZipfGenerator> generators;
      generators.reserve(kUnits);
      for (int ue = 0; ue < kUnits; ++ue) {
        generators.emplace_back(workload.kv.num_keys, workload.kv.alpha,
                                wl::kvMix64(workload.kv.seed ^ static_cast<std::uint64_t>(ue)));
      }
    }
    SpanScope span(tracer, "workloads.kv_reference", "kv", root, pass_id);
    for (int ue = 0; ue < kUnits; ++ue) {
      kv_reference.push_back(wl::kvReferenceChecksum(workload.kv, ue));
    }
  }

  std::uint64_t digest = fnv1a(workload.name);
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    const Job& job = workload.jobs[j];
    const Program& program = workload.programs[job.program];
    JobOutcome out;
    out.label = job.label;
    out.pthread = job.mode == wl::Mode::PthreadSingleCore;
    std::string& why = out.failure;
    if (!program_failure[job.program].empty()) {
      why = program_failure[job.program];
    } else {
      const ExecutionPlan* plan =
          job.fixed_plan ? job.fixed_plan.get() : &translated[job.program].execution_plan;
      try {
        SpanScope span(tracer, out.pthread ? "threadrt.run" : "workloads.run", job.label,
                       root, pass_id);
        const double start_ms = tracer.enabled() ? tracer.nowMs() : 0.0;
        out.result = program.bench->run(job.mode, kUnits, config, plan);
        if (!out.pthread) {
          const auto& host = out.result.metrics.host_gauges;
          const auto wall = host.find("wall_seconds");
          tracer.addKnown("sim.run", job.label, span.id(), start_ms,
                          wall == host.end() ? 0.0 : wall->second * 1e3);
        }
      } catch (const std::exception& e) {
        why = std::string("threw: ") + e.what();
      }
      if (why.empty()) {
        const wl::RunResult& r = out.result;
        out.sim_outputs = simOutputs(r);
        const bool verified =
            r.verified && static_cast<int>(j) != options.force_unverified_job;
        if (!verified) {
          why = "not verified: " + r.detail;
        } else if (r.mpb_scope_violations != 0) {
          why = "mpb_scope_violations=" + std::to_string(r.mpb_scope_violations);
        } else if (r.plan_regions_unrealized != 0) {
          why = "plan_regions_unrealized=" + std::to_string(r.plan_regions_unrealized);
        } else if (workload.has_kv && kvChk0(r.detail) != kv_reference.at(0)) {
          why = "UE 0 checksum differs from kvReferenceChecksum";
        } else if (options.reference != nullptr &&
                   out.sim_outputs != options.reference->at(j)) {
          why = "simulated outputs differ from the first pass";
        }
      }
    }
    out.ok = why.empty();
    digest = fnv1a(out.label + '\n' + out.sim_outputs + '\n', digest);
    pass.jobs.push_back(std::move(out));
  }
  pass.digest = digest;
  tracer.end(root);
  pass.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return pass;
}

double paperSpeedup(const std::string& benchmark) {
  for (const PaperSpeedup& ref : kFig61) {
    if (benchmark == ref.benchmark) return ref.speedup;
  }
  return 0.0;
}

}  // namespace perfbench
