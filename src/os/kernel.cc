#include "os/kernel.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"

namespace microscale::os
{

Kernel::Kernel(sim::Simulation &sim, const topo::Machine &machine,
               cpu::ExecEngine &engine, SchedParams params,
               std::uint64_t seed)
    : sim_(sim),
      machine_(machine),
      engine_(engine),
      params_(params),
      rng_(seed, "os.kernel"),
      rq_(machine.numCpus()),
      on_cpu_(machine.numCpus(), nullptr),
      reserved_(machine.numCpus(), nullptr),
      last_ran_(machine.numCpus(), nullptr),
      min_vruntime_(machine.numCpus(), 0.0),
      load_(machine.numCpus())
{
    for (CpuId cpu = 0; cpu < machine_.numCpus(); ++cpu)
        refreshLoad(cpu);
}

Kernel::~Kernel()
{
    stop();
}

Thread *
Kernel::createThread(std::string name, CpuMask affinity, NodeId home_node)
{
    const CpuMask allowed = affinity & machine_.allCpus();
    if (allowed.empty()) {
        fatal("thread '", name,
              "': affinity has no CPUs on this machine (",
              affinity.toString(), ")");
    }
    if (home_node != kInvalidNode && home_node >= machine_.numNodes())
        fatal("thread '", name, "': home node ", home_node, " not present");
    threads_.push_back(std::make_unique<Thread>(
        *this, next_tid_++, std::move(name), allowed, home_node));
    return threads_.back().get();
}

void
Kernel::start()
{
    if (started_)
        return;
    started_ = true;
    tick_.start(sim_, params_.timeslice, [this] { preemptTick(); });
    if (params_.loadBalance) {
        balancer_.start(sim_, params_.balancePeriod,
                        [this] { balancePass(); });
    }
}

void
Kernel::stop()
{
    tick_.stop();
    balancer_.stop();
    started_ = false;
}

bool
Kernel::cpuIdle(CpuId cpu) const
{
    return !engine_.runningOn(cpu) && !reserved_[cpu] && rq_[cpu].empty();
}

unsigned
Kernel::cpuLoad(CpuId cpu) const
{
    unsigned load = static_cast<unsigned>(rq_[cpu].size());
    if (engine_.runningOn(cpu) || reserved_[cpu])
        ++load;
    return load;
}

CpuId
Kernel::findIdleIn(const CpuMask &mask) const
{
    // First choice: a fully idle core (both hardware threads free),
    // which is what select_idle_core prefers. Then any idle thread.
    const CpuId c = mask.firstCommon(idle_core_);
    return c != kInvalidCpu ? c : mask.firstCommon(load_.idle());
}

void
Kernel::refreshLoad(CpuId cpu)
{
    const unsigned load = cpuLoad(cpu);
    load_.set(cpu, load);
    if (rq_[cpu].empty())
        queued_.clear(cpu);
    else
        queued_.set(cpu);
    const CpuId sib = machine_.siblingOf(cpu);
    const bool core_idle =
        load == 0 && (sib == kInvalidCpu || cpuIdle(sib));
    for (CpuId c : {cpu, sib}) {
        if (c == kInvalidCpu)
            continue;
        if (core_idle)
            idle_core_.set(c);
        else
            idle_core_.clear(c);
    }
}

bool
Kernel::idleMasksConsistent() const
{
    if (!load_.consistent())
        return false;
    for (CpuId c = 0; c < machine_.numCpus(); ++c) {
        const CpuId sib = machine_.siblingOf(c);
        const bool core_idle =
            cpuIdle(c) && (sib == kInvalidCpu || cpuIdle(sib));
        if (load_.load(c) != cpuLoad(c) ||
            load_.idle().test(c) != cpuIdle(c) ||
            idle_core_.test(c) != core_idle ||
            queued_.test(c) == rq_[c].empty())
            return false;
    }
    return true;
}

CpuId
LoadIndex::leastLoaded(const CpuMask &mask, CpuId hint) const
{
    const bool circular = mask.test(hint);
    for (const CpuMask &bucket : by_load_) {
        CpuId c = circular ? mask.firstCommonFrom(bucket, hint + 1)
                           : kInvalidCpu;
        if (c == kInvalidCpu)
            c = mask.firstCommon(bucket);
        if (c != kInvalidCpu)
            return c;
    }
    return kInvalidCpu;
}

bool
LoadIndex::consistent() const
{
    std::size_t members = 0;
    for (unsigned l = 0; l < by_load_.size(); ++l) {
        for (CpuId c : by_load_[l]) {
            if (c >= load_.size() || load_[c] != l)
                return false;
            ++members;
        }
    }
    return members == load_.size();
}

CpuId
Kernel::selectCpu(Thread *t)
{
    const CpuMask &allowed = t->affinity();
    const CpuId prev = t->ec().lastCpu();

    if (prev == kInvalidCpu) {
        // Fork/exec balancing: place on the least-loaded allowed CPU.
        return load_.leastLoaded(allowed, kInvalidCpu);
    }

    // 1. The previous CPU, if it is idle and still allowed.
    if (allowed.test(prev) && cpuIdle(prev))
        return prev;

    // 2. An idle CPU in the previous LLC (CCX) domain.
    const CpuMask ccx_mask = machine_.ccxMask(machine_.ccxOf(prev)) & allowed;
    CpuId c = findIdleIn(ccx_mask);
    if (c != kInvalidCpu)
        return c;

    // 3. An idle CPU in the previous NUMA node.
    const CpuMask node_mask =
        machine_.nodeMask(machine_.nodeOf(prev)) & allowed;
    c = findIdleIn(node_mask);
    if (c != kInvalidCpu)
        return c;

    // 4. Any idle allowed CPU.
    c = findIdleIn(allowed);
    if (c != kInvalidCpu)
        return c;

    // 5. Nothing idle: least-loaded queue, preferring the local CCX.
    if (!ccx_mask.empty()) {
        const CpuId local = load_.leastLoaded(ccx_mask, prev);
        // Only stay local when the local queues are not clearly worse
        // than the best queue anywhere.
        const CpuId global = load_.leastLoaded(allowed, prev);
        if (local != kInvalidCpu &&
            load_.load(local) <= load_.load(global) + 1) {
            return local;
        }
        return global;
    }
    return load_.leastLoaded(allowed, prev);
}

void
Kernel::enqueue(Thread *t, CpuId cpu)
{
    if (t->state_ == Thread::State::Runnable)
        MS_PANIC("enqueue of already-queued thread ", t->name());
    t->state_ = Thread::State::Runnable;
    t->rq_cpu_ = cpu;
    t->vruntime_ = std::max(t->vruntime_, min_vruntime_[cpu]);
    rq_[cpu].push_back(t);
    refreshLoad(cpu);
}

Thread *
Kernel::dequeueNext(CpuId cpu)
{
    auto &q = rq_[cpu];
    if (q.empty())
        return nullptr;
    auto best = q.begin();
    for (auto it = std::next(q.begin()); it != q.end(); ++it) {
        if ((*it)->vruntime_ < (*best)->vruntime_)
            best = it;
    }
    Thread *t = *best;
    q.erase(best);
    t->rq_cpu_ = kInvalidCpu;
    refreshLoad(cpu);
    return t;
}

void
Kernel::removeFromQueue(Thread *t)
{
    if (t->rq_cpu_ == kInvalidCpu)
        MS_PANIC("removeFromQueue of unqueued thread ", t->name());
    auto &q = rq_[t->rq_cpu_];
    auto it = std::find(q.begin(), q.end(), t);
    if (it == q.end())
        MS_PANIC("thread ", t->name(), " missing from its run queue");
    q.erase(it);
    refreshLoad(t->rq_cpu_);
    t->rq_cpu_ = kInvalidCpu;
}

void
Kernel::wake(Thread *t)
{
    ++stats_.wakeups;
    ++t->ec().counters().wakeups;
    const CpuId cpu = selectCpu(t);
    enqueue(t, cpu);
    schedule(cpu);
}

void
Kernel::onAffinityChanged(Thread *t)
{
    switch (t->state_) {
      case Thread::State::Blocked:
        break;
      case Thread::State::Runnable:
        if (!t->affinity().test(t->rq_cpu_)) {
            removeFromQueue(t);
            t->state_ = Thread::State::Blocked;
            const CpuId cpu = selectCpu(t);
            enqueue(t, cpu);
            schedule(cpu);
        }
        break;
      case Thread::State::Running: {
        const CpuId cpu = t->ec().cpu();
        // Mid-switch threads get re-checked at the next tick.
        if (cpu != kInvalidCpu && !t->affinity().test(cpu))
            preempt(cpu);
        break;
      }
    }
}

void
Kernel::schedule(CpuId cpu)
{
    if (engine_.runningOn(cpu) || reserved_[cpu])
        return;
    Thread *t = dequeueNext(cpu);
    if (!t) {
        if (params_.newIdleSteal && started_)
            newIdlePull(cpu);
        return;
    }
    dispatch(t, cpu);
}

void
Kernel::dispatch(Thread *t, CpuId cpu)
{
    if (t->state_ != Thread::State::Runnable &&
        t->state_ != Thread::State::Blocked) {
        MS_PANIC("dispatch of thread ", t->name(), " in bad state");
    }
    t->state_ = Thread::State::Running;
    min_vruntime_[cpu] = std::max(min_vruntime_[cpu], t->vruntime_);

    const CpuId prev = t->ec().lastCpu();
    if (prev != kInvalidCpu && prev != cpu) {
        ++stats_.migrations;
        if (machine_.ccxOf(prev) != machine_.ccxOf(cpu))
            ++stats_.ccxMigrations;
    }

    const bool needs_switch =
        last_ran_[cpu] != t && params_.switchCost > 0;
    if (!needs_switch) {
        on_cpu_[cpu] = t;
        last_ran_[cpu] = t;
        t->last_dispatch_ = sim_.now();
        engine_.startRun(t->ec(), cpu);
        refreshLoad(cpu);
        return;
    }

    reserved_[cpu] = t;
    refreshLoad(cpu);
    engine_.chargeOverhead(cpu, params_.switchCost, &t->ec().counters());
    sim_.scheduleAfter(params_.switchCost, [this, t, cpu] {
        if (reserved_[cpu] != t)
            MS_PANIC("switch reservation lost on cpu ", cpu);
        reserved_[cpu] = nullptr;
        on_cpu_[cpu] = t;
        last_ran_[cpu] = t;
        t->last_dispatch_ = sim_.now();
        engine_.startRun(t->ec(), cpu);
        refreshLoad(cpu);
    });
}

void
Kernel::onWorkComplete(Thread *t)
{
    // The engine has already detached the context from its CPU.
    const CpuId cpu = t->ec().lastCpu();
    t->vruntime_ +=
        static_cast<double>(sim_.now() - t->last_dispatch_);
    t->state_ = Thread::State::Blocked;
    on_cpu_[cpu] = nullptr;
    refreshLoad(cpu);
    ++stats_.contextSwitches;
    ++t->ec().counters().contextSwitches;

    // Let the freed CPU pick its next thread before the user callback
    // possibly re-submits this one.
    schedule(cpu);

    sim::EventFn cb = std::move(t->user_cb_);
    if (cb)
        cb();
}

void
Kernel::preempt(CpuId cpu)
{
    Thread *t = on_cpu_[cpu];
    if (!t || !t->ec().running())
        return;
    engine_.stopRun(t->ec());
    refreshLoad(cpu);
    t->vruntime_ +=
        static_cast<double>(sim_.now() - t->last_dispatch_);
    on_cpu_[cpu] = nullptr;
    t->state_ = Thread::State::Blocked; // transiently, for enqueue
    ++stats_.preemptions;
    ++stats_.contextSwitches;
    ++t->ec().counters().contextSwitches;

    if (t->affinity().test(cpu)) {
        enqueue(t, cpu);
    } else {
        const CpuId target = selectCpu(t);
        enqueue(t, target);
        schedule(target);
    }
    schedule(cpu);
}

void
Kernel::preemptTick()
{
    const Tick now = sim_.now();
    for (CpuId cpu = 0; cpu < machine_.numCpus(); ++cpu) {
        Thread *t = on_cpu_[cpu];
        if (!t || reserved_[cpu])
            continue;
        if (!t->ec().running())
            continue;
        // Preempt a thread off a CPU its affinity no longer allows.
        if (!t->affinity().test(cpu)) {
            preempt(cpu);
            continue;
        }
        if (now - t->last_dispatch_ < params_.timeslice)
            continue;
        if (rq_[cpu].empty())
            continue;
        const double run_vr =
            t->vruntime_ +
            static_cast<double>(now - t->last_dispatch_);
        double min_queued = std::numeric_limits<double>::max();
        for (Thread *q : rq_[cpu])
            min_queued = std::min(min_queued, q->vruntime_);
        if (min_queued < run_vr)
            preempt(cpu);
    }
}

Thread *
Kernel::stealFrom(const CpuMask &domain, CpuId for_cpu)
{
    // Find the deepest queue in the domain holding a thread that is
    // allowed to run on for_cpu. An empty queue never beats depth 0,
    // so only queued CPUs are visited, still in ascending order.
    CpuId busiest = kInvalidCpu;
    std::size_t depth = 0;
    for (CpuId c : domain & queued_) {
        if (c == for_cpu)
            continue;
        if (rq_[c].size() > depth) {
            bool eligible = false;
            for (Thread *q : rq_[c]) {
                if (q->affinity().test(for_cpu)) {
                    eligible = true;
                    break;
                }
            }
            if (eligible) {
                depth = rq_[c].size();
                busiest = c;
            }
        }
    }
    if (busiest == kInvalidCpu)
        return nullptr;
    for (Thread *q : rq_[busiest]) {
        if (q->affinity().test(for_cpu)) {
            removeFromQueue(q);
            q->state_ = Thread::State::Blocked; // transiently
            return q;
        }
    }
    return nullptr;
}

Thread *
Kernel::stealFor(CpuId cpu)
{
    // Widening search: CCX, then node, then the whole machine.
    const CpuMask *domains[] = {
        &machine_.ccxMask(machine_.ccxOf(cpu)),
        &machine_.nodeMask(machine_.nodeOf(cpu)),
        &machine_.allCpus(),
    };
    for (const CpuMask *d : domains) {
        if (Thread *t = stealFrom(*d, cpu))
            return t;
    }
    return nullptr;
}

bool
Kernel::newIdlePull(CpuId cpu)
{
    if (queued_.empty())
        return false;
    Thread *t = stealFor(cpu);
    if (!t)
        return false;
    ++stats_.newIdlePulls;
    enqueue(t, cpu);
    schedule(cpu);
    return true;
}

void
Kernel::balancePass()
{
    // Idle CPUs in ascending order. Each pull changes idleness, so the
    // next one is looked up in the live mask, never in a snapshot (nor
    // through a held reference: a deeper queue can grow the index).
    // Once no queue holds a thread, no later CPU can pull anything.
    for (CpuId cpu = load_.idle().first();
         cpu != kInvalidCpu && !queued_.empty();
         cpu = load_.idle().firstCommonFrom(machine_.allCpus(), cpu + 1)) {
        if (Thread *t = stealFor(cpu)) {
            ++stats_.balancePulls;
            enqueue(t, cpu);
            schedule(cpu);
        }
    }
}

} // namespace microscale::os
