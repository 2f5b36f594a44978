#include "runtime/machine_pool.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"

namespace quma::runtime {

MachinePool::MachinePool(std::size_t max_machines, ProgramCache *cache)
    : maxMachines(max_machines ? max_machines : 1), lutCache(cache)
{
}

MachinePool::Lease::Lease(Lease &&other) noexcept
    : owner(other.owner), shardKey(std::move(other.shardKey)),
      m(std::move(other.m))
{
    other.owner = nullptr;
}

MachinePool::Lease &
MachinePool::Lease::operator=(Lease &&other) noexcept
{
    if (this != &other) {
        release();
        owner = other.owner;
        shardKey = std::move(other.shardKey);
        m = std::move(other.m);
        other.owner = nullptr;
    }
    return *this;
}

MachinePool::Lease::~Lease()
{
    release();
}

void
MachinePool::Lease::release()
{
    if (owner && m)
        owner->give_back(shardKey, std::move(m));
    owner = nullptr;
    m.reset();
}

MachinePool::Lease
MachinePool::acquire(const core::MachineConfig &config)
{
    return acquireKeyed(configKey(config), config);
}

MachinePool::Lease
MachinePool::acquireKeyed(const std::string &key,
                          const core::MachineConfig &config,
                          double *blocked_seconds)
{
    if (blocked_seconds)
        *blocked_seconds = 0.0;
    double waited = 0.0;
    // Declared before the lock so an evicted machine's (non-trivial)
    // teardown runs after the mutex is released.
    std::unique_ptr<core::QumaMachine> evicted;
    std::unique_lock<std::mutex> lock(mu);
    ++counters.acquisitions;
    ms.acquisitions.inc();
    for (;;) {
        auto it = idle.find(key);
        if (it != idle.end() && !it->second.empty()) {
            std::unique_ptr<core::QumaMachine> m =
                std::move(it->second.front());
            it->second.pop_front();
            if (it->second.empty())
                idle.erase(it);
            auto pos =
                std::find(idleOrder.begin(), idleOrder.end(), key);
            quma_assert(pos != idleOrder.end(),
                        "idle-order bookkeeping out of sync");
            idleOrder.erase(pos);
            ++counters.reuseHits;
            ms.reuseHits.inc();
            ++leased;
            if (blocked_seconds)
                *blocked_seconds = waited;
            ms.leaseWait.observe(waited);
            return Lease(this, key, std::move(m));
        }
        if (totalMachines < maxMachines) {
            // Reserve the slot, construct outside the lock.
            ++totalMachines;
            ++leased;
            break;
        }
        if (!idleOrder.empty()) {
            // Full of machines, none match: evict the machine that
            // has been idle longest to make room for this config.
            std::string victim = idleOrder.front();
            idleOrder.pop_front();
            auto vit = idle.find(victim);
            quma_assert(vit != idle.end() && !vit->second.empty(),
                        "idle-order bookkeeping out of sync");
            evicted = std::move(vit->second.front());
            vit->second.pop_front();
            if (vit->second.empty())
                idle.erase(vit);
            --totalMachines;
            ++counters.evictions;
            ms.evictions.inc();
            continue;
        }
        auto waitStart = std::chrono::steady_clock::now();
        cv.wait(lock);
        waited += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - waitStart)
                      .count();
    }
    ++counters.machinesCreated;
    if (blocked_seconds)
        *blocked_seconds = waited;
    ms.leaseWait.observe(waited);
    lock.unlock();

    try {
        auto m = std::make_unique<core::QumaMachine>(config);
        if (lutCache)
            m->uploadStandardCalibration(lutCache->lutProvider(),
                                         lutCache->mduProvider());
        else
            m->uploadStandardCalibration();
        // The metric counts only constructions that survived (the
        // exported counter is monotonic and cannot mirror the
        // Stats rollback in the catch below).
        ms.machinesCreated.inc();
        return Lease(this, key, std::move(m));
    } catch (...) {
        std::lock_guard<std::mutex> relock(mu);
        --totalMachines;
        --leased;
        --counters.machinesCreated;
        cv.notify_one();
        throw;
    }
}

void
MachinePool::give_back(const std::string &key,
                       std::unique_ptr<core::QumaMachine> machine)
{
    // Re-arm outside the lock: reset cost must not serialize workers.
    machine->reset();
    ms.machineResets.inc();
    {
        std::lock_guard<std::mutex> lock(mu);
        ++counters.machineResets;
        idle[key].push_back(std::move(machine));
        idleOrder.push_back(key);
        --leased;
    }
    cv.notify_one();
}

void
MachinePool::bindMetrics(metrics::MetricsRegistry &registry)
{
    ms.acquisitions = registry.counter(
        "quma_pool_acquisitions_total",
        "Machine lease requests (reuse hits + constructions).");
    ms.reuseHits = registry.counter(
        "quma_pool_reuse_hits_total",
        "Lease requests served by an idle machine (no construction).");
    ms.machinesCreated = registry.counter(
        "quma_pool_machines_created_total",
        "Machines constructed, calibration upload included.");
    ms.evictions = registry.counter(
        "quma_pool_evictions_total",
        "Idle machines destroyed to make room for another config.");
    ms.machineResets = registry.counter(
        "quma_pool_machine_resets_total",
        "QumaMachine::reset() calls on lease hand-back.");
    // Sub-millisecond buckets: an uncongested pool hands leases back
    // in microseconds, and the interesting signal is the onset of
    // blocking, not its exact depth.
    ms.leaseWait = registry.histogram(
        "quma_pool_lease_wait_seconds",
        "Time acquire spent blocked on a fully leased pool.",
        {0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
         0.05, 0.1, 0.25, 0.5, 1.0});
    registry.gaugeFn("quma_pool_machines_idle",
                     "Idle machines currently held by the pool.", {},
                     [this] {
                         std::lock_guard<std::mutex> lock(mu);
                         return static_cast<double>(totalMachines -
                                                    leased);
                     });
    registry.gaugeFn("quma_pool_machines_leased",
                     "Machines currently leased out to workers.", {},
                     [this] {
                         std::lock_guard<std::mutex> lock(mu);
                         return static_cast<double>(leased);
                     });
    registry.gaugeFn(
        "quma_pool_capacity",
        "Pool capacity: the leased + idle machine bound.", {},
        [this] { return static_cast<double>(maxMachines); });
}

MachinePool::Stats
MachinePool::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    Stats s = counters;
    s.idleMachines = totalMachines - leased;
    s.leasedMachines = leased;
    return s;
}

} // namespace quma::runtime
