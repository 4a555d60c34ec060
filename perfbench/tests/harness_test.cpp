// Tests of the benchmark harness itself: the checks count failures without
// touching the simulated outputs, and the simulated-output digest repeats.
#include <gtest/gtest.h>

#include "harness.h"

namespace perfbench {
namespace {

TEST(Harness, SimDigestIsIdenticalAcrossTwoPasses) {
  for (const std::string& name : workloadNames()) {
    const Workload w = makeWorkload(name, 0);
    Tracer tracer(false);
    const PassResult first = runPass(w, tracer, PassOptions{});
    std::vector<std::string> reference;
    for (const JobOutcome& job : first.jobs) reference.push_back(job.sim_outputs);
    PassOptions second_options;
    second_options.pass_id = 1;
    second_options.reference = &reference;
    const PassResult second = runPass(w, tracer, second_options);
    EXPECT_EQ(first.failed(), 0u) << name;
    EXPECT_EQ(second.failed(), 0u) << name;
    EXPECT_EQ(first.digest, second.digest) << name;
  }
}

TEST(Harness, ForcedVerificationFailureCountsOneFailureAndChangesNothingElse) {
  const Workload w = makeWorkload("kv_zipf", 0);
  Tracer tracer(false);
  const PassResult clean = runPass(w, tracer, PassOptions{});
  PassOptions forced;
  forced.force_unverified_job = 1;
  const PassResult broken = runPass(w, tracer, forced);

  EXPECT_EQ(clean.failed(), 0u);
  EXPECT_EQ(broken.failed(), 1u);
  EXPECT_FALSE(broken.jobs[1].ok);
  EXPECT_NE(broken.jobs[1].failure.find("not verified"), std::string::npos);
  EXPECT_TRUE(broken.jobs[0].ok);
  EXPECT_EQ(clean.digest, broken.digest);
  ASSERT_EQ(clean.jobs.size(), broken.jobs.size());
  for (std::size_t j = 0; j < clean.jobs.size(); ++j) {
    EXPECT_EQ(clean.jobs[j].sim_outputs, broken.jobs[j].sim_outputs);
  }
}

TEST(Harness, ChangedSimulatedOutputFailsTheJob) {
  const Workload w = makeWorkload("kv_zipf", 0);
  Tracer tracer(false);
  const PassResult first = runPass(w, tracer, PassOptions{});
  std::vector<std::string> reference;
  for (const JobOutcome& job : first.jobs) reference.push_back(job.sim_outputs);
  reference[0] += " makespan_ticks=0";
  PassOptions options;
  options.reference = &reference;
  const PassResult second = runPass(w, tracer, options);
  EXPECT_FALSE(second.jobs[0].ok);
  EXPECT_TRUE(second.jobs[1].ok);
}

TEST(Harness, KvSeedChangesTheZipfStreamOnly) {
  const Workload a = makeWorkload("kv_zipf", 0);
  const Workload b = makeWorkload("kv_zipf", 7);
  EXPECT_EQ(a.kv.seed, wl::KvParams{}.seed);
  EXPECT_NE(a.kv.seed, b.kv.seed);
  EXPECT_EQ(a.kv.num_keys, b.kv.num_keys);
  EXPECT_EQ(a.kv.ops_per_ue, b.kv.ops_per_ue);
}

TEST(Harness, TracedPassRecordsLayerSpansUnderThePass) {
  const Workload w = makeWorkload("paper_compute", 0);
  Tracer tracer(true);
  PassOptions options;
  options.pass_id = 3;
  const PassResult pass = runPass(w, tracer, options);
  EXPECT_EQ(pass.failed(), 0u);
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "pass");
  std::size_t translate = 0;
  std::size_t sim_runs = 0;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].pass, 3);
    EXPECT_GE(spans[i].parent, 0);
    EXPECT_GE(spans[i].durationMs(), 0.0);
    translate += spans[i].name == "translator.translate" ? 1 : 0;
    if (spans[i].name == "sim.run") {
      ++sim_runs;
      EXPECT_EQ(spans[static_cast<std::size_t>(spans[i].parent)].name, "workloads.run");
    }
  }
  EXPECT_EQ(translate, w.programs.size());
  EXPECT_EQ(sim_runs, 6u);  // three programs x two RCCE modes
  const std::vector<double> self = selfTimesMs(spans);
  double self_total = 0.0;
  for (const double s : self) self_total += s;
  EXPECT_NEAR(self_total, spans[0].durationMs(), 1e-6);
}

TEST(Harness, PaperReferenceTable) {
  EXPECT_EQ(paperSpeedup("PiApprox"), 32.0);
  EXPECT_EQ(paperSpeedup("Stream"), 17.0);
  EXPECT_EQ(paperSpeedup("LU"), 0.0);
  EXPECT_EQ(paperSpeedup("DotProduct"), 0.0);
}

}  // namespace
}  // namespace perfbench
