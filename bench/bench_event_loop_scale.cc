/**
 * @file
 * Cluster driver scaling: thread-per-replica vs the event-driven
 * coordinator, swept over replica count x per-replica trace length on
 * two arrival regimes (sparse Poisson and bursty diurnal). Each cell
 * runs the identical routed workload under both drivers and reports
 * wall-clock, simulated makespan and the wall-clock speedup; the
 * merged reports are cross-checked for equality, so the speedup is
 * measured on provably identical simulations.
 *
 * The regime that motivates the event loop: replica counts far beyond
 * the host's cores with little work per replica, where the thread
 * driver pays creation + context-switch overhead per replica and the
 * coordinator just walks the virtual-time heap. In full mode the
 * sparse small-share rows at 64+ replicas assert a >= 5x wall-clock
 * speedup (comfortably under the measured margin); smoke mode skips
 * the assertion (timing under smoke is meaningless).
 */

#include "bench_util.hh"

#include <chrono>

#include "serving/cluster.hh"

using namespace vattn;
using namespace vattn::bench;

namespace
{

struct CellResult
{
    double threads_ms = 0;
    double event_ms = 0;
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

double
wallMs(serving::ServingCluster &cluster,
       std::vector<serving::Request> trace,
       serving::ClusterReport &out)
{
    const auto t0 = std::chrono::steady_clock::now();
    out = cluster.run(std::move(trace));
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

CellResult
runCell(int replicas, int reqs_per_replica, bool diurnal)
{
    CellResult cell;
    serving::ClusterReport threads_report;
    serving::ClusterReport event_report;
    for (int pass = 0; pass < 2; ++pass) {
        auto config = serving::ServingCluster::uniform(
            lightReplica(), replicas, serving::RoutingPolicy::kRoundRobin);
        config.execution = pass == 0
                               ? serving::ClusterExecution::kThreads
                               : serving::ClusterExecution::kEventLoop;
        serving::ServingCluster cluster(std::move(config));
        auto &report = pass == 0 ? threads_report : event_report;
        const double ms = wallMs(
            cluster, makeTrace(replicas, reqs_per_replica, diurnal),
            report);
        (pass == 0 ? cell.threads_ms : cell.event_ms) = ms;
    }
    // Same simulation either way — the wall-clock comparison below is
    // only meaningful because these are equal.
    fatal_if(threads_report.merged.num_requests !=
                     event_report.merged.num_requests ||
                 threads_report.merged.makespan_ns !=
                     event_report.merged.makespan_ns ||
                 threads_report.merged.decode_tokens !=
                     event_report.merged.decode_tokens,
             "event-loop run diverged from the thread run");
    cell.sim_s = SimClock::toSeconds(event_report.merged.makespan_ns);
    cell.requests = event_report.merged.num_requests;
    return cell;
}

} // namespace

int
main()
{
    banner("Cluster event-loop scaling",
           "thread-per-replica vs event-driven coordinator; identical "
           "simulations, wall-clock compared (Yi-6B paged replicas, "
           "16-token prompts, 4 output tokens)");
    JsonReport json("event_loop_scale");

    const std::vector<int> replica_counts =
        smokeMode() ? std::vector<int>{2, 4}
                    : std::vector<int>{16, 64, 128};
    const std::vector<int> lengths = {1, 4};

    double min_asserted_speedup = 0;
    for (const bool diurnal : {false, true}) {
        const char *regime = diurnal ? "diurnal" : "sparse";
        Table table({"replicas", "reqs/replica", "threads ms",
                     "event ms", "speedup", "sim s", "requests"});
        for (const int replicas : replica_counts) {
            for (const int reqs_per_replica : lengths) {
                const CellResult cell =
                    runCell(replicas, reqs_per_replica, diurnal);
                const double speedup =
                    cell.event_ms > 0 ? cell.threads_ms / cell.event_ms
                                      : 0;
                table.addRow({std::to_string(replicas),
                              std::to_string(reqs_per_replica),
                              Table::num(cell.threads_ms, 2),
                              Table::num(cell.event_ms, 2),
                              Table::num(speedup, 2),
                              Table::num(cell.sim_s, 1),
                              std::to_string(cell.requests)});
                const std::string key =
                    std::string(regime) + "_n" +
                    std::to_string(replicas) + "_r" +
                    std::to_string(reqs_per_replica);
                // Wall-clock keys carry "wall"/"speedup" so the CI
                // perf-diff skips them (host-dependent); the sim-side
                // metrics are deterministic and tracked.
                json.metric(key + "_threads_wall_ms", cell.threads_ms);
                json.metric(key + "_event_wall_ms", cell.event_ms);
                json.metric(key + "_speedup", speedup);
                json.metric(key + "_sim_s", cell.sim_s);
                json.metric(key + "_requests", cell.requests);
                // The headline claim, asserted where the margin is
                // largest: small shares at replica counts well past
                // the core count. Skipped under smoke (tiny replica
                // counts, meaningless timing).
                if (!smokeMode() && !diurnal && replicas >= 64 &&
                    reqs_per_replica == 1) {
                    fatal_if(speedup < 5.0,
                             "event loop only ", speedup,
                             "x faster than threads at ", replicas,
                             " replicas (need >= 5x)");
                    min_asserted_speedup =
                        min_asserted_speedup == 0
                            ? speedup
                            : std::min(min_asserted_speedup, speedup);
                }
            }
        }
        json.printTable(std::string("regime = ") + regime +
                            " arrivals (0.2 QPS/replica mean)",
                        table);
    }
    if (!smokeMode()) {
        json.metric("min_asserted_speedup", min_asserted_speedup);
        std::printf("\nasserted: event loop >= 5x threads on sparse "
                    "1-request shares at 64+ replicas (measured min "
                    "%.1fx)\n",
                    min_asserted_speedup);
    }
    return 0;
}
