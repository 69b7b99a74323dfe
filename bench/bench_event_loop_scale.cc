/**
 * @file
 * Cluster driver scaling, swept over replica count x per-replica trace
 * length on two arrival regimes (sparse Poisson and bursty diurnal).
 * Each cell times ServingCluster::run on the routed workload and
 * reports wall-clock and simulated makespan. The merged report is
 * checked against the reference — the routing pre-pass plus one plain
 * Engine::run per replica share — so the timing is of a simulation
 * known to be right.
 *
 * The regime of interest: replica counts far beyond the host's cores
 * with little work per replica, where the driver's per-replica cost
 * (not simulation work) dominates the wall clock.
 */

#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <vector>

#include "serving/cluster.hh"

using namespace vattn;
using namespace vattn::bench;

namespace
{

struct CellResult
{
    double wall_ms = 0;
    double sim_s = 0;
    i64 requests = 0;
};

serving::EngineConfig
lightReplica()
{
    serving::EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.backend = perf::BackendKind::kFa2Paged;
    config.kv_budget_override = 256 * MiB;
    config.scheduler.max_num_seqs = 16;
    config.scheduler.max_batched_tokens = 8192;
    return config;
}

std::vector<serving::Request>
makeTrace(int replicas, int reqs_per_replica, bool diurnal)
{
    std::vector<serving::Request> trace(
        static_cast<std::size_t>(replicas * reqs_per_replica));
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].id = static_cast<u64>(i);
        trace[i].prompt_tokens = 16;
        trace[i].max_new_tokens = 4;
    }
    // Low offered load either way (the gaps are what the event core
    // jumps over); the diurnal day packs the same mean into bursts.
    const double mean_qps = 0.2 * replicas;
    if (diurnal) {
        serving::assignDiurnalArrivals(trace, mean_qps,
                                       /*period_s=*/60.0,
                                       /*depth=*/0.9, /*seed=*/13);
    } else {
        serving::assignPoissonArrivals(trace, mean_qps, /*seed=*/11);
    }
    return trace;
}

CellResult
runCell(int replicas, int reqs_per_replica, bool diurnal)
{
    auto config = serving::ServingCluster::uniform(
        lightReplica(), replicas, serving::RoutingPolicy::kRoundRobin);
    serving::ServingCluster cluster(config);
    const auto trace = makeTrace(replicas, reqs_per_replica, diurnal);

    const auto t0 = std::chrono::steady_clock::now();
    const serving::ClusterReport report = cluster.run(trace);
    const auto t1 = std::chrono::steady_clock::now();

    // Reference: the same routing, then each share on its own engine.
    const std::vector<int> assignment = cluster.routeTrace(trace);
    std::vector<std::vector<serving::Request>> shares(
        static_cast<std::size_t>(replicas));
    for (std::size_t i = 0; i < trace.size(); ++i) {
        shares[static_cast<std::size_t>(assignment[i])].push_back(
            trace[i]);
    }
    i64 requests = 0;
    i64 decode_tokens = 0;
    TimeNs makespan_ns = 0;
    for (std::size_t r = 0; r < shares.size(); ++r) {
        serving::Engine engine(config.replicas[r]);
        const serving::RunReport expected =
            engine.run(std::move(shares[r]));
        requests += expected.num_requests;
        decode_tokens += expected.decode_tokens;
        makespan_ns = std::max(makespan_ns, expected.makespan_ns);
    }
    fatal_if(report.merged.num_requests != requests ||
                 report.merged.makespan_ns != makespan_ns ||
                 report.merged.decode_tokens != decode_tokens,
             "cluster run diverged from the per-replica engine runs");

    CellResult cell;
    cell.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    cell.sim_s = SimClock::toSeconds(report.merged.makespan_ns);
    cell.requests = report.merged.num_requests;
    return cell;
}

} // namespace

int
main()
{
    banner("Cluster driver scaling",
           "ServingCluster::run wall-clock and sim-time per cell, "
           "checked against per-replica engine runs (Yi-6B paged "
           "replicas, 16-token prompts, 4 output tokens)");
    JsonReport json("event_loop_scale");

    const std::vector<int> replica_counts =
        smokeMode() ? std::vector<int>{2, 4}
                    : std::vector<int>{16, 64, 128};
    const std::vector<int> lengths = {1, 4};

    for (const bool diurnal : {false, true}) {
        const char *regime = diurnal ? "diurnal" : "sparse";
        Table table({"replicas", "reqs/replica", "wall ms", "sim s",
                     "requests"});
        for (const int replicas : replica_counts) {
            for (const int reqs_per_replica : lengths) {
                const CellResult cell =
                    runCell(replicas, reqs_per_replica, diurnal);
                table.addRow({std::to_string(replicas),
                              std::to_string(reqs_per_replica),
                              Table::num(cell.wall_ms, 2),
                              Table::num(cell.sim_s, 1),
                              std::to_string(cell.requests)});
                const std::string key =
                    std::string(regime) + "_n" +
                    std::to_string(replicas) + "_r" +
                    std::to_string(reqs_per_replica);
                // The wall-clock key carries "wall" so the CI perf-diff
                // skips it (host-dependent); the sim-side metrics are
                // deterministic and tracked.
                json.metric(key + "_wall_ms", cell.wall_ms);
                json.metric(key + "_sim_s", cell.sim_s);
                json.metric(key + "_requests", cell.requests);
            }
        }
        json.printTable(std::string("regime = ") + regime +
                            " arrivals (0.2 QPS/replica mean)",
                        table);
    }
    return 0;
}
