/**
 * @file
 * Driver equivalence: the event-driven paths must reproduce plain
 * per-replica simulation bit for bit.
 *
 *  - ServingCluster::run vs routeTrace plus a fresh Engine::run per
 *    replica share, each on its own thread, on a Figure-10-style
 *    online trace, under both composer policies and with more
 *    replicas than cores: identical per-replica and merged reports,
 *    down to the full latency sample vectors and the timestamp-merged
 *    iteration records.
 *  - An Engine session (beginOnline/submitOnline/closeOnline) stepped
 *    externally vs run() on a sparse-arrival trace: identical
 *    RunReport, identical iteration records, and the idle steps jump
 *    the clock instead of spinning.
 *  - The k-way iteration merge is pinned against its specification,
 *    a stable sort of the concatenated per-replica streams.
 */

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serving/cluster.hh"
#include "test_util.hh"

namespace vattn::serving
{
namespace
{

EngineConfig
replicaConfig(SchedulingMode mode = SchedulingMode::kStallFreeChunked)
{
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.backend = perf::BackendKind::kFa2VAttention;
    config.kv_budget_override = 8 * GiB;
    config.scheduler.max_num_seqs = 4;
    config.scheduler.max_batched_tokens = 8192;
    config.scheduler.mode = mode;
    config.vattn.max_batch_size = 4;
    config.record_iterations = true;
    return config;
}

void
expectSameIterations(const std::vector<IterationRecord> &a,
                     const std::vector<IterationRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].start_ns, b[i].start_ns) << "record " << i;
        EXPECT_EQ(a[i].duration_ns, b[i].duration_ns) << "record " << i;
        EXPECT_EQ(a[i].is_prefill, b[i].is_prefill) << "record " << i;
        EXPECT_EQ(a[i].batch, b[i].batch) << "record " << i;
        EXPECT_EQ(a[i].mem_critical_ns, b[i].mem_critical_ns)
            << "record " << i;
        EXPECT_EQ(a[i].groups_mapped, b[i].groups_mapped)
            << "record " << i;
        EXPECT_EQ(a[i].prefill_chunk_tokens, b[i].prefill_chunk_tokens)
            << "record " << i;
        EXPECT_EQ(a[i].num_prefill_chunks, b[i].num_prefill_chunks)
            << "record " << i;
        EXPECT_EQ(a[i].decode_batch, b[i].decode_batch)
            << "record " << i;
    }
}

/** Bit-for-bit RunReport equality: every counter, every raw latency
 *  sample, every iteration record. */
void
expectSameReport(const RunReport &a, const RunReport &b)
{
    EXPECT_EQ(a.num_requests, b.num_requests);
    EXPECT_EQ(a.makespan_ns, b.makespan_ns);
    EXPECT_EQ(a.busy_ns, b.busy_ns);
    EXPECT_EQ(a.prompt_tokens, b.prompt_tokens);
    EXPECT_EQ(a.decode_tokens, b.decode_tokens);
    EXPECT_EQ(a.decode_iterations, b.decode_iterations);
    EXPECT_EQ(a.prefill_iterations, b.prefill_iterations);
    EXPECT_EQ(a.mixed_iterations, b.mixed_iterations);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.peak_batch, b.peak_batch);
    EXPECT_EQ(a.swap_outs, b.swap_outs);
    EXPECT_EQ(a.swap_ins, b.swap_ins);
    EXPECT_EQ(a.swap_out_bytes, b.swap_out_bytes);
    EXPECT_EQ(a.swap_in_bytes, b.swap_in_bytes);
    EXPECT_EQ(a.swap_stall_ns, b.swap_stall_ns);
    EXPECT_EQ(a.dropped_requests, b.dropped_requests);
    EXPECT_EQ(a.prefix_lookups, b.prefix_lookups);
    EXPECT_EQ(a.prefix_hits, b.prefix_hits);
    EXPECT_EQ(a.prefill_tokens_saved, b.prefill_tokens_saved);
    EXPECT_EQ(a.prefix_aliased_bytes, b.prefix_aliased_bytes);
    EXPECT_EQ(a.prefix_copied_bytes, b.prefix_copied_bytes);
    EXPECT_EQ(a.latency_s.sorted(), b.latency_s.sorted());
    EXPECT_EQ(a.ttft_s.sorted(), b.ttft_s.sorted());
    EXPECT_EQ(a.tbt_s.sorted(), b.tbt_s.sorted());
    EXPECT_EQ(a.normalized_latency_s.sorted(),
              b.normalized_latency_s.sorted());
    expectSameIterations(a.iterations, b.iterations);
}

/** Figure-10-shaped online load scaled to test size: long-context
 *  summarization requests at a near-capacity Poisson rate. */
std::vector<Request>
onlineTrace(int n)
{
    auto trace = arxivOnlineTrace(n, /*seed=*/2);
    assignPoissonArrivals(trace, /*qps=*/0.5, /*seed=*/2024);
    return trace;
}

ClusterReport
runCluster(const std::vector<Request> &trace)
{
    ServingCluster cluster(ServingCluster::uniform(
        replicaConfig(), 3, RoutingPolicy::kJoinShortestQueue));
    return cluster.run(trace);
}

/** The merge specification over per-replica reports: counts summed,
 *  maxima maxed, every sample pooled, iteration records stably sorted
 *  by start time with replicas in index order. */
RunReport
mergeBySpec(const std::vector<RunReport> &replicas)
{
    RunReport merged;
    std::vector<IterationRecord> iterations;
    for (const RunReport &r : replicas) {
        merged.num_requests += r.num_requests;
        merged.makespan_ns = std::max(merged.makespan_ns, r.makespan_ns);
        merged.busy_ns += r.busy_ns;
        merged.prompt_tokens += r.prompt_tokens;
        merged.decode_tokens += r.decode_tokens;
        merged.decode_iterations += r.decode_iterations;
        merged.prefill_iterations += r.prefill_iterations;
        merged.mixed_iterations += r.mixed_iterations;
        merged.preemptions += r.preemptions;
        merged.peak_batch = std::max(merged.peak_batch, r.peak_batch);
        merged.swap_outs += r.swap_outs;
        merged.swap_ins += r.swap_ins;
        merged.swap_out_bytes += r.swap_out_bytes;
        merged.swap_in_bytes += r.swap_in_bytes;
        merged.swap_stall_ns += r.swap_stall_ns;
        merged.dropped_requests += r.dropped_requests;
        merged.prefix_lookups += r.prefix_lookups;
        merged.prefix_hits += r.prefix_hits;
        merged.prefill_tokens_saved += r.prefill_tokens_saved;
        merged.prefix_aliased_bytes += r.prefix_aliased_bytes;
        merged.prefix_copied_bytes += r.prefix_copied_bytes;
        for (double x : r.latency_s.sorted()) {
            merged.latency_s.add(x);
        }
        for (double x : r.ttft_s.sorted()) {
            merged.ttft_s.add(x);
        }
        for (double x : r.tbt_s.sorted()) {
            merged.tbt_s.add(x);
        }
        for (double x : r.normalized_latency_s.sorted()) {
            merged.normalized_latency_s.add(x);
        }
        iterations.insert(iterations.end(), r.iterations.begin(),
                          r.iterations.end());
    }
    std::stable_sort(iterations.begin(), iterations.end(),
                     [](const IterationRecord &a, const IterationRecord &b) {
                         return a.start_ns < b.start_ns;
                     });
    merged.iterations = std::move(iterations);
    return merged;
}

/** Route @p trace with a cluster of @p replicas, run it there, and
 *  check the cluster's one driver against the per-replica reference:
 *  a fresh Engine::run per routed share, each on its own thread as
 *  independent replicas would run. Every per-replica report and the
 *  merged report (against mergeBySpec) must agree bit for bit. */
void
expectMatchesThreadedReplicas(const EngineConfig &config, int replicas,
                              RoutingPolicy policy,
                              const std::vector<Request> &trace)
{
    ServingCluster cluster(ServingCluster::uniform(config, replicas, policy));
    const std::vector<int> assignment = cluster.routeTrace(trace);
    const ClusterReport report = cluster.run(trace);

    std::vector<std::vector<Request>> shares(
        static_cast<std::size_t>(replicas));
    for (std::size_t i = 0; i < trace.size(); ++i) {
        shares[static_cast<std::size_t>(assignment[i])].push_back(trace[i]);
    }
    std::vector<RunReport> expected(shares.size());
    std::vector<std::thread> workers;
    for (std::size_t r = 0; r < shares.size(); ++r) {
        workers.emplace_back([&config, &shares, &expected, r] {
            Engine engine(config);
            expected[r] = engine.run(shares[r]);
        });
    }
    for (std::thread &worker : workers) {
        worker.join();
    }

    ASSERT_EQ(report.replicas.size(), shares.size());
    for (std::size_t r = 0; r < shares.size(); ++r) {
        SCOPED_TRACE("replica " + std::to_string(r));
        expectSameReport(report.replicas[r], expected[r]);
        EXPECT_EQ(report.assigned[r], static_cast<i64>(shares[r].size()));
    }
    expectSameReport(report.merged, mergeBySpec(expected));
}

TEST(EventLoopEquivalence, ClusterEventLoopMatchesThreadsBitForBit)
{
    // Replicas are independent once routed, so the cluster's single
    // driver, which interleaves them on one thread, must equal its
    // routing pre-pass plus one Engine::run per share on its own thread.
    expectMatchesThreadedReplicas(replicaConfig(), 3,
                                  RoutingPolicy::kJoinShortestQueue,
                                  onlineTrace(18));
}

TEST(EventLoopEquivalence, ClusterEquivalenceUnderPrefillPrioritized)
{
    // The other composer policy exercises monolithic prefill
    // iterations and different preemption timing.
    expectMatchesThreadedReplicas(
        replicaConfig(SchedulingMode::kPrefillPrioritized), 2,
        RoutingPolicy::kRoundRobin, onlineTrace(12));
}

TEST(EventLoopEquivalence, AutoResolvesByCoreCount)
{
    // The cluster has one driver whatever the host's core count: with
    // fewer replicas than cores and with more, it matches the threaded
    // per-replica reference.
    const int cores =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    for (const int replicas : {std::min(2, cores), cores + 1}) {
        SCOPED_TRACE(std::to_string(replicas) + " replicas on " +
                     std::to_string(cores) + " cores");
        expectMatchesThreadedReplicas(replicaConfig(), replicas,
                                      RoutingPolicy::kRoundRobin,
                                      onlineTrace(12));
    }
}

TEST(EventLoopEquivalence, MergedIterationsMatchStableSortSpec)
{
    // Pin the k-way merge against its specification: a stable sort of
    // the concatenated per-replica streams by start time, replicas in
    // index order. Any tie-break change shows up here.
    const auto report = runCluster(onlineTrace(18));
    std::vector<std::pair<std::size_t, const IterationRecord *>> spec;
    for (std::size_t r = 0; r < report.replicas.size(); ++r) {
        for (const auto &record : report.replicas[r].iterations) {
            spec.emplace_back(r, &record);
        }
    }
    std::stable_sort(spec.begin(), spec.end(),
                     [](const auto &a, const auto &b) {
                         return a.second->start_ns < b.second->start_ns;
                     });
    ASSERT_EQ(report.merged.iterations.size(), spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        EXPECT_EQ(report.merged.iterations[i].start_ns,
                  spec[i].second->start_ns);
        EXPECT_EQ(report.merged.iterations[i].duration_ns,
                  spec[i].second->duration_ns);
        EXPECT_EQ(report.merged.iterations[i].batch,
                  spec[i].second->batch);
    }
}

// ---- Engine step API ------------------------------------------------

/** Sparse arrivals: long idle gaps between chat requests, the trace
 *  shape where the idle-skip path does all the work. */
std::vector<Request>
sparseTrace(int n)
{
    auto trace = openChatTrace(n, /*seed=*/3);
    assignPoissonArrivals(trace, /*qps=*/0.05, /*seed=*/71);
    return trace;
}

/** Open a session, submit @p trace (time-ordered) and close it. */
void
submitAll(Engine &engine, std::vector<Request> trace)
{
    engine.beginOnline(trace.size());
    for (Request &request : trace) {
        ASSERT_TRUE(engine.submitOnline(std::move(request)).isOk());
    }
    engine.closeOnline();
}

TEST(EventLoopEquivalence, StepApiMatchesRunOnSparseTrace)
{
    const auto trace = sparseTrace(16);

    Engine whole(replicaConfig());
    const RunReport via_run = whole.run(trace);

    Engine stepped(replicaConfig());
    EXPECT_EQ(stepped.nextEventNs(), sim::kNoEventNs); // no active run
    submitAll(stepped, trace);
    while (stepped.runActive()) {
        // The engine's next event never precedes its clock, and while
        // active it is always a real timestamp.
        const TimeNs next = stepped.nextEventNs();
        ASSERT_NE(next, sim::kNoEventNs);
        ASSERT_GE(next, stepped.clock().now());
        stepped.stepRun();
    }
    EXPECT_EQ(stepped.nextEventNs(), sim::kNoEventNs);
    const RunReport via_steps = stepped.endRun();

    expectSameReport(via_run, via_steps);
    // Sparse load: most of the makespan is idle gaps the engine
    // jumped over, not simulated busy time.
    EXPECT_LT(via_steps.busy_ns, via_steps.makespan_ns / 2);
}

TEST(EventLoopEquivalence, IdleEngineJumpsToNextArrival)
{
    constexpr TimeNs kHourNs = 3'600'000'000'000ULL;
    auto trace = sparseTrace(2);
    trace[0].arrival_ns = 0;
    trace[1].arrival_ns = kHourNs; // an hour of virtual time later
    Engine engine(replicaConfig());
    submitAll(engine, std::move(trace));

    // Serve the first request to completion.
    while (engine.runActive() &&
           engine.nextEventNs() <= engine.clock().now()) {
        engine.stepRun();
    }
    ASSERT_TRUE(engine.runActive());
    // Idle: the next event is the second arrival, an hour of virtual
    // time away. One step must jump the clock straight there.
    EXPECT_EQ(engine.nextEventNs(), kHourNs);
    engine.stepRun();
    EXPECT_EQ(engine.clock().now(), kHourNs);

    while (engine.runActive()) {
        engine.stepRun();
    }
    const auto report = engine.endRun();
    EXPECT_EQ(report.num_requests, 2);
}

TEST(EventLoopEquivalence, StepApiGuardsMisuse)
{
    test::ScopedThrowErrors guard;
    Engine engine(replicaConfig());
    EXPECT_THROW(engine.stepRun(), SimError); // no active run

    engine.beginOnline();
    EXPECT_THROW(engine.beginOnline(), SimError); // nested, still open
    EXPECT_THROW(engine.endRun(), SimError);      // session still open
    for (Request &request : sparseTrace(4)) {
        ASSERT_TRUE(engine.submitOnline(std::move(request)).isOk());
    }
    engine.closeOnline();
    EXPECT_THROW(engine.beginOnline(), SimError); // nested, in flight
    EXPECT_THROW(engine.endRun(), SimError);      // requests in flight
    while (engine.runActive()) {
        engine.stepRun();
    }
    EXPECT_EQ(engine.endRun().num_requests, 4);

    // A drained engine reports no pending events and an empty
    // open/close cycle yields the zero report.
    Engine fresh(replicaConfig());
    submitAll(fresh, {});
    EXPECT_FALSE(fresh.runActive());
    EXPECT_EQ(fresh.endRun().num_requests, 0);
}

} // namespace
} // namespace vattn::serving
