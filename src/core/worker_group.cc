#include "core/worker_group.hh"

#include "common/logging.hh"

namespace vattn::core
{

WorkerGroup::WorkerGroup(int num_workers, const Config &config,
                         u64 device_mem_bytes)
{
    fatal_if(num_workers <= 0, "WorkerGroup needs >= 1 worker");
    config.validate().expectOk("WorkerGroup config");
    workers_.reserve(static_cast<std::size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) {
        Worker worker;
        gpu::GpuDevice::Config dev_config;
        dev_config.name = "simGPU-worker" + std::to_string(w);
        dev_config.mem_bytes = device_mem_bytes;
        worker.device = std::make_unique<gpu::GpuDevice>(dev_config);
        worker.driver = std::make_unique<cuvmm::Driver>(*worker.device);
        worker.runtime =
            std::make_unique<VAttention>(*worker.driver, config);
        workers_.push_back(std::move(worker));
    }
}

VAttention &
WorkerGroup::worker(int index)
{
    panic_if(index < 0 || index >= numWorkers(), "bad worker index");
    return *workers_[static_cast<std::size_t>(index)].runtime;
}

const VAttention &
WorkerGroup::worker(int index) const
{
    panic_if(index < 0 || index >= numWorkers(), "bad worker index");
    return *workers_[static_cast<std::size_t>(index)].runtime;
}

cuvmm::Driver &
WorkerGroup::driver(int index)
{
    panic_if(index < 0 || index >= numWorkers(), "bad worker index");
    return *workers_[static_cast<std::size_t>(index)].driver;
}

Result<int>
WorkerGroup::allocReqId()
{
    auto first = workers_[0].runtime->allocReqId();
    for (std::size_t w = 1; w < workers_.size(); ++w) {
        auto other = workers_[w].runtime->allocReqId();
        panic_if(other.isOk() != first.isOk() ||
                     (first.isOk() && other.value() != first.value()),
                 "TP workers diverged in allocReqId");
    }
    return first;
}

Result<int>
WorkerGroup::allocReqIdWithPrefix(const PrefixQuery &query,
                                  i64 max_cached, i64 *cached_tokens)
{
    i64 first_cached = 0;
    auto first = workers_[0].runtime->allocReqIdWithPrefix(
        query, max_cached, &first_cached);
    for (std::size_t w = 1; w < workers_.size(); ++w) {
        i64 other_cached = 0;
        auto other = workers_[w].runtime->allocReqIdWithPrefix(
            query, max_cached, &other_cached);
        panic_if(other.isOk() != first.isOk() ||
                     (first.isOk() && other.value() != first.value()) ||
                     other_cached != first_cached,
                 "TP workers diverged in allocReqIdWithPrefix");
    }
    if (cached_tokens != nullptr) {
        *cached_tokens = first_cached;
    }
    return first;
}

void
WorkerGroup::registerPrefix(int req_id, const PrefixQuery &query,
                            i64 tokens)
{
    for (auto &worker : workers_) {
        worker.runtime->registerPrefix(req_id, query, tokens);
    }
}

Status
WorkerGroup::freeReqId(int req_id)
{
    Status first = workers_[0].runtime->freeReqId(req_id);
    for (std::size_t w = 1; w < workers_.size(); ++w) {
        Status other = workers_[w].runtime->freeReqId(req_id);
        panic_if(!(other == first), "TP workers diverged in freeReqId");
    }
    return first;
}

StepStats
WorkerGroup::step(const std::vector<i64> &seq_lens)
{
    StepStats first = workers_[0].runtime->step(seq_lens);
    for (std::size_t w = 1; w < workers_.size(); ++w) {
        StepStats other = workers_[w].runtime->step(seq_lens);
        panic_if(other.handles_mapped != first.handles_mapped ||
                     other.critical_ns != first.critical_ns ||
                     !(other.status == first.status),
                 "TP workers diverged in step");
    }
    return first;
}

SwapStats
WorkerGroup::swapOutReq(int req_id)
{
    SwapStats first = workers_[0].runtime->swapOutReq(req_id);
    for (std::size_t w = 1; w < workers_.size(); ++w) {
        SwapStats other = workers_[w].runtime->swapOutReq(req_id);
        panic_if(other.handles != first.handles ||
                     other.bytes != first.bytes ||
                     !(other.status == first.status),
                 "TP workers diverged in swapOutReq");
    }
    return first;
}

SwapStats
WorkerGroup::swapInReq(int req_id)
{
    SwapStats first = workers_[0].runtime->swapInReq(req_id);
    for (std::size_t w = 1; w < workers_.size(); ++w) {
        SwapStats other = workers_[w].runtime->swapInReq(req_id);
        panic_if(other.handles != first.handles ||
                     other.bytes != first.bytes ||
                     !(other.status == first.status),
                 "TP workers diverged in swapInReq");
    }
    return first;
}

Result<VAttention::HostKvImage>
WorkerGroup::exportSwapped(int req_id)
{
    auto first = workers_[0].runtime->exportSwapped(req_id);
    for (std::size_t w = 1; w < workers_.size(); ++w) {
        auto other = workers_[w].runtime->exportSwapped(req_id);
        panic_if(other.isOk() != first.isOk() ||
                     (first.isOk() &&
                      (other.value().handles != first.value().handles ||
                       other.value().bytes != first.value().bytes)),
                 "TP workers diverged in exportSwapped");
    }
    return first;
}

bool
WorkerGroup::canImportSwapped(i64 handles) const
{
    return workers_[0].runtime->canImportSwapped(handles);
}

Result<int>
WorkerGroup::importSwapped(const VAttention::HostKvImage &image)
{
    auto first = workers_[0].runtime->importSwapped(image);
    for (std::size_t w = 1; w < workers_.size(); ++w) {
        auto other = workers_[w].runtime->importSwapped(image);
        panic_if(other.isOk() != first.isOk() ||
                     (first.isOk() && other.value() != first.value()),
                 "TP workers diverged in importSwapped");
    }
    return first;
}

void
WorkerGroup::computePhase(TimeNs window_ns)
{
    for (auto &worker : workers_) {
        worker.runtime->computePhase(window_ns);
    }
}

u64
WorkerGroup::physBytesMappedTotal() const
{
    u64 total = 0;
    for (const auto &worker : workers_) {
        total += worker.runtime->physBytesMapped();
    }
    return total;
}

bool
WorkerGroup::checkInvariants() const
{
    audit::AuditReport report;
    auditInto(report);
    return report.ok();
}

bool
WorkerGroup::canAllocate(i64 prompt_tokens) const
{
    return workers_[0].runtime->canAllocate(prompt_tokens);
}

PrefixHit
WorkerGroup::matchPrefix(const PrefixQuery &query) const
{
    return workers_[0].runtime->matchPrefix(query);
}

TimeNs
WorkerGroup::lastPrefixAllocNs() const
{
    return workers_[0].runtime->lastPrefixAllocNs();
}

bool
WorkerGroup::canSwapOut(int req_id) const
{
    return workers_[0].runtime->canSwapOut(req_id);
}

bool
WorkerGroup::canSwapIn(int req_id) const
{
    return workers_[0].runtime->canSwapIn(req_id);
}

u64
WorkerGroup::hostSwapBudgetBytes() const
{
    return workers_[0].runtime->hostSwapBudgetBytes();
}

const KvGeometry &
WorkerGroup::geometry() const
{
    return workers_[0].runtime->geometry();
}

const RuntimeStats &
WorkerGroup::stats() const
{
    return workers_[0].runtime->stats();
}

u64
WorkerGroup::physBytesMappedPerWorker() const
{
    return workers_[0].runtime->physBytesMapped();
}

u64
WorkerGroup::budgetBytesPerWorker() const
{
    return workers_[0].runtime->budgetBytes();
}

i64
WorkerGroup::mappedHandles(int req_id) const
{
    return workers_[0].runtime->mappedHandles(req_id);
}

void
WorkerGroup::auditInto(audit::AuditReport &report) const
{
    for (const auto &worker : workers_) {
        worker.runtime->auditInto(report);
    }
    // Cross-worker state equality: every control input was identical
    // and the runtime is deterministic, so any divergence means one
    // worker's state machine drifted — localize it by worker, slot and
    // quantity so the failure is actionable.
    const auto &reference = *workers_[0].runtime;
    for (std::size_t w = 1; w < workers_.size(); ++w) {
        const auto &other = *workers_[w].runtime;
        report.check(other.physBytesMapped() ==
                         reference.physBytesMapped(),
                     "worker_group: worker ", w, " maps ",
                     other.physBytesMapped(),
                     " physical bytes but worker 0 maps ",
                     reference.physBytesMapped(),
                     " (lockstep divergence)");
        report.check(other.poolFreeHandles() ==
                         reference.poolFreeHandles(),
                     "worker_group: worker ", w, " pool has ",
                     other.poolFreeHandles(),
                     " free handles but worker 0 has ",
                     reference.poolFreeHandles(),
                     " (lockstep divergence)");
        report.check(other.cachedHandles() == reference.cachedHandles(),
                     "worker_group: worker ", w, " caches ",
                     other.cachedHandles(),
                     " handles but worker 0 caches ",
                     reference.cachedHandles(),
                     " (lockstep divergence)");
        for (int slot = 0; slot < reference.config().max_batch_size;
             ++slot) {
            report.check(
                other.groupsMapped(slot) == reference.groupsMapped(slot),
                "worker_group: worker ", w, " slot ", slot, " maps ",
                other.groupsMapped(slot),
                " groups but worker 0 maps ",
                reference.groupsMapped(slot),
                " — a worker's sequence state desynced from the group");
            report.check(
                other.slots().state(slot) == reference.slots().state(slot),
                "worker_group: worker ", w, " slot ", slot,
                " is in a different lifecycle state than worker 0's"
                " (lockstep divergence)");
        }
    }
}

} // namespace vattn::core
