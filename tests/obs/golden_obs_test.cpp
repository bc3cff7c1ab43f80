/// Observability-transparency regression suite: attaching the event-loop
/// profiler (chained in front of the verify digest/invariant observers), a
/// metrics registry, and a flight-recorder tracer to a scenario's
/// simulators must leave every pinned digest byte-identical. This is the
/// load-bearing guarantee of the whole obs layer — instrumentation
/// observes, it never perturbs.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"
#include "verify/scenarios.hpp"

namespace ll::verify {
namespace {

TEST(GoldenObservability, ProfilerAttachmentLeavesDigestsIdentical) {
  for (const auto& scenario : scenarios()) {
    SCOPED_TRACE(scenario.name);
    ScenarioOptions plain;  // kGoldenSeed
    const ScenarioResult baseline = scenario.run(plain);

    // One profiler per engine attachment: scenarios may build several
    // engines, and a profiler must not straddle two observer chains.
    std::vector<std::unique_ptr<obs::EventLoopProfiler>> profilers;
    ScenarioOptions instrumented;
    instrumented.wrap_observer = [&](des::SimObserver* inner) {
      profilers.push_back(std::make_unique<obs::EventLoopProfiler>(inner));
      return profilers.back().get();
    };
    const ScenarioResult observed = scenario.run(instrumented);

    EXPECT_EQ(baseline.digest.value(), observed.digest.value())
        << "profiler attachment perturbed the event stream";
    EXPECT_EQ(baseline.events, observed.events);
    EXPECT_EQ(baseline.checks, observed.checks);
    if (!profilers.empty()) {
      std::uint64_t fires = 0;
      for (const auto& p : profilers) fires += p->fires();
      EXPECT_GT(fires, 0u) << "profiler was attached but saw no events";
    }
  }
}

TEST(GoldenObservability, MetricsLeaveClusterDigestsIdentical) {
  bool any_cluster = false;
  for (const auto& scenario : scenarios()) {
    if (scenario.module != "cluster") continue;
    any_cluster = true;
    SCOPED_TRACE(scenario.name);
    ScenarioOptions plain;
    const ScenarioResult baseline = scenario.run(plain);

    obs::MetricRegistry registry;
    ScenarioOptions instrumented;
    instrumented.cluster_hook = [&](cluster::ClusterSim& sim) {
      sim.set_metrics(&registry);
    };
    const ScenarioResult observed = scenario.run(instrumented);

    EXPECT_EQ(baseline.digest.value(), observed.digest.value())
        << "metrics attachment perturbed the event stream";
    EXPECT_EQ(baseline.events, observed.events);
    EXPECT_GT(registry.size(), 0u);
  }
  EXPECT_TRUE(any_cluster) << "no cluster scenario exercised the hook";
}

TEST(GoldenObservability, FullInstrumentationStackIsTransparent) {
  // Profiler + metrics + tracer together, the way `llsim profile
  // --timeline` attaches them — the combination must be as invisible as
  // each piece alone. The tracer is the one record of job and node
  // transitions, so the runs must also show every lifecycle label.
  std::set<std::string> open_ll_labels;
  std::set<std::string> all_labels;
  for (const auto& scenario : scenarios()) {
    if (scenario.module != "cluster") continue;
    SCOPED_TRACE(scenario.name);
    ScenarioOptions plain;
    const ScenarioResult baseline = scenario.run(plain);

    std::vector<std::unique_ptr<obs::EventLoopProfiler>> profilers;
    obs::MetricRegistry registry;
    obs::Tracer tracer(/*ring_capacity=*/1 << 12);
    ScenarioOptions instrumented;
    instrumented.wrap_observer = [&](des::SimObserver* inner) {
      profilers.push_back(std::make_unique<obs::EventLoopProfiler>(inner));
      return profilers.back().get();
    };
    instrumented.cluster_hook = [&](cluster::ClusterSim& sim) {
      sim.set_metrics(&registry);
      sim.set_tracer(&tracer);
    };
    const ScenarioResult observed = scenario.run(instrumented);
    EXPECT_EQ(baseline.digest.value(), observed.digest.value());
    EXPECT_EQ(baseline.events, observed.events);

    const obs::Tracer::Snapshot snap = tracer.snapshot();
    EXPECT_EQ(snap.dropped, 0u);
    for (const auto& e : snap.records) {
      const std::string& label = snap.labels[e.rec.label];
      all_labels.insert(label);
      if (scenario.name == "cluster-open-ll") open_ll_labels.insert(label);
    }
  }
  // A linger-longer open run queues, places (idle and non-idle nodes) and
  // finishes jobs. It is too short for an owner to come or go, so the
  // node flips are checked across the cluster scenarios
  // (cluster-closed-pm has both).
  for (const char* label : {"cluster.job.queued", "cluster.job.running",
                            "cluster.job.lingering", "cluster.job.done"}) {
    EXPECT_TRUE(open_ll_labels.count(label)) << "cluster-open-ll has no "
                                             << label << " record";
  }
  for (const char* label : {"cluster.node.idle", "cluster.node.busy"}) {
    EXPECT_TRUE(all_labels.count(label)) << "no " << label << " record";
  }
}

TEST(GoldenObservability, FullTracingLeavesEveryDigestIdentical) {
  // The flight recorder on every layer it can reach from a scenario — a
  // TracingObserver per engine attachment plus ClusterSim::set_tracer —
  // must leave all 14 pinned digests byte-identical. A small ring forces
  // wraparound during the run, so the drop path is covered too.
  for (const auto& scenario : scenarios()) {
    SCOPED_TRACE(scenario.name);
    ScenarioOptions plain;  // kGoldenSeed
    const ScenarioResult baseline = scenario.run(plain);

    obs::Tracer tracer(/*ring_capacity=*/512);
    std::vector<std::unique_ptr<obs::TracingObserver>> observers;
    ScenarioOptions traced;
    traced.wrap_observer = [&](des::SimObserver* inner) {
      observers.push_back(
          std::make_unique<obs::TracingObserver>(&tracer, inner));
      return observers.back().get();
    };
    traced.cluster_hook = [&](cluster::ClusterSim& sim) {
      sim.set_tracer(&tracer);
    };
    const ScenarioResult observed = scenario.run(traced);

    EXPECT_EQ(baseline.digest.value(), observed.digest.value())
        << "tracer attachment perturbed the event stream";
    EXPECT_EQ(baseline.events, observed.events);
    EXPECT_EQ(baseline.checks, observed.checks);
    // Scenarios without a DES engine (pure RNG/workload checks) never
    // invoke wrap_observer; only attached tracers must have recorded.
    if (!observers.empty()) {
      EXPECT_GT(tracer.recorded(), 0u)
          << "tracing was attached but recorded nothing";
    }
  }
}

}  // namespace
}  // namespace ll::verify
