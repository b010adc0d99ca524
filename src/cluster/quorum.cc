/**
 * @file
 * Quorum coordination state plus the Cluster's replicated-data-tier
 * RPC choreography (quorum writes/reads, hinted handoff, read repair
 * and the scale-event rebalance stream). Everything here is reached
 * only when ReplicationParams::factor > 1.
 */

#include "cluster/quorum.hh"

#include <algorithm>
#include <set>
#include <utility>

#include "base/logging.hh"
#include "cluster/cluster.hh"
#include "db/store.hh"
#include "teastore/app.hh"

namespace microscale::cluster
{

namespace
{

/** Instruction budgets of the replication-only shard handlers. */
constexpr double kApplyWriteCost = 120e3;
constexpr double kProbeCost = 30e3;
constexpr double kMigrateBatchCost = 200e3;
/** Size of replication control messages. */
constexpr std::uint32_t kQuorumCtrlBytes = 256;
/** Response size of version probes and applies. */
constexpr std::uint32_t kQuorumRespBytes = 64;
/** Deadlines of background replication traffic (async legs, hint
 * replay, migrate batches): generous, but bounded so a partitioned
 * peer resolves to a failure instead of hanging the drain. */
constexpr Tick kAsyncApplyDeadline = 1 * kSecond;
constexpr Tick kRebalanceDeadline = 5 * kSecond;

/** Client names for background traffic (edge-policy/link matching). */
constexpr const char *kQuorumClient = "quorum";
constexpr const char *kRebalanceClient = "rebalance";

/** Entity-op index of an "<op>:<id>" entity key. */
std::uint64_t
entityOpIndexOf(const std::string &entity)
{
    const auto colon = entity.find(':');
    return detail::entityOpIndex(entity.substr(0, colon));
}

} // namespace

unsigned
resolvedWriteQuorum(const ReplicationParams &p)
{
    if (p.writeQuorum != 0)
        return p.writeQuorum;
    return p.factor / 2 + 1;
}

unsigned
resolvedReadQuorum(const ReplicationParams &p)
{
    if (p.readQuorum != 0)
        return p.readQuorum;
    const unsigned w = resolvedWriteQuorum(p);
    return p.factor >= w ? p.factor - w + 1 : 1;
}

// ---------------------------------------------------------------------------
// QuorumCoordinator

QuorumCoordinator::QuorumCoordinator(const ReplicationParams &params,
                                     unsigned shards,
                                     chaos::RequestLedger *ledger)
    : params_(params), write_quorum_(resolvedWriteQuorum(params)),
      read_quorum_(resolvedReadQuorum(params)), ledger_(ledger)
{
    if (write_quorum_ == 0 || write_quorum_ > params_.factor)
        fatal("write quorum ", write_quorum_,
              " out of range for factor ", params_.factor);
    if (read_quorum_ == 0 || read_quorum_ > params_.factor)
        fatal("read quorum ", read_quorum_, " out of range for factor ",
              params_.factor);
    applied_.resize(shards);
    hint_queues_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i)
        hint_queues_.emplace_back(params_.hintQueueCap);
}

void
QuorumCoordinator::addShard()
{
    applied_.emplace_back();
    hint_queues_.emplace_back(params_.hintQueueCap);
}

std::uint64_t
QuorumCoordinator::beginWrite(const std::string &entity)
{
    return ++next_version_[entity];
}

void
QuorumCoordinator::recordApplied(unsigned shard,
                                 const std::string &entity,
                                 std::uint64_t version)
{
    auto &v = applied_.at(shard)[entity];
    if (version > v)
        v = version;
}

std::uint64_t
QuorumCoordinator::appliedVersion(unsigned shard,
                                  const std::string &entity) const
{
    const auto &m = applied_.at(shard);
    const auto it = m.find(entity);
    return it == m.end() ? 0 : it->second;
}

void
QuorumCoordinator::ackWrite(const std::string &entity,
                            std::uint64_t version)
{
    auto &v = acked_[entity];
    if (version > v)
        v = version;
    ++stats_.ackedWrites;
    if (ledger_ != nullptr)
        ledger_->recordAckedWrite(entity, version);
}

std::uint64_t
QuorumCoordinator::ackedVersion(const std::string &entity) const
{
    const auto it = acked_.find(entity);
    return it == acked_.end() ? 0 : it->second;
}

void
QuorumCoordinator::recordStaleRead()
{
    ++stats_.staleQuorumReads;
    if (ledger_ != nullptr)
        ledger_->recordStaleQuorumRead();
}

void
QuorumCoordinator::noteHintDepth()
{
    std::uint64_t depth = 0;
    for (const HintQueue &q : hint_queues_)
        depth += q.depth();
    stats_.hintDepthPeak = std::max(stats_.hintDepthPeak, depth);
}

void
QuorumCoordinator::verifyAcked(
    const std::function<std::vector<unsigned>(const std::string &)>
        &ownersOf)
{
    stats_.consistencyChecked = true;
    // A read picks any R_q of the owners, so an acked write survives
    // only while at least R - R_q + 1 owners hold it.
    const unsigned need = params_.factor - read_quorum_ + 1;
    for (const auto &[entity, version] : acked_) {
        unsigned have = 0;
        for (unsigned s : ownersOf(entity)) {
            if (appliedVersion(s, entity) >= version)
                ++have;
        }
        if (have < need) {
            ++stats_.lostAckedWrites;
            if (ledger_ != nullptr)
                ledger_->recordLostAckedWrite(entity, version);
        }
    }
}

std::vector<std::string>
QuorumCoordinator::knownEntities() const
{
    std::set<std::string> keys;
    for (const auto &m : applied_) {
        for (const auto &[entity, version] : m)
            keys.insert(entity);
    }
    for (const auto &[entity, version] : acked_)
        keys.insert(entity);
    return {keys.begin(), keys.end()};
}

void
QuorumCoordinator::harvest(core::ReplicationSummary &out) const
{
    out.active = true;
    out.factor = params_.factor;
    out.writeQuorum = write_quorum_;
    out.readQuorum = read_quorum_;
    out.quorumWrites = stats_.quorumWrites;
    out.writeFailures = stats_.writeFailures;
    out.writeAckP50Ms =
        write_ack_ns_.count() > 0 ? write_ack_ns_.p50() / 1e6 : 0.0;
    out.writeAckP99Ms = write_ack_ns_.count() > 0
                            ? write_ack_ns_.quantile(0.99) / 1e6
                            : 0.0;
    out.quorumReads = stats_.quorumReads;
    out.readFailures = stats_.readFailures;
    out.readRepairs = stats_.readRepairs;
    out.readRefetches = stats_.readRefetches;
    out.readP50Ms = read_ns_.count() > 0 ? read_ns_.p50() / 1e6 : 0.0;
    out.readP99Ms =
        read_ns_.count() > 0 ? read_ns_.quantile(0.99) / 1e6 : 0.0;
    out.hintsQueued = stats_.hintsQueued;
    out.hintsReplayed = stats_.hintsReplayed;
    out.hintsDropped = stats_.hintsDropped;
    out.hintDepthPeak = stats_.hintDepthPeak;
    out.rebalancesStarted = stats_.rebalancesStarted;
    out.rebalancesCompleted = stats_.rebalancesCompleted;
    out.rebalanceBatches = stats_.rebalanceBatches;
    out.rebalanceBytes = stats_.rebalanceBytes;
    out.dualReads = stats_.dualReads;
    out.rebalanceMsTotal = stats_.rebalanceMsTotal;
    out.consistencyChecked = stats_.consistencyChecked;
    out.ackedWrites = stats_.ackedWrites;
    out.lostAckedWrites = stats_.lostAckedWrites;
    out.staleQuorumReads = stats_.staleQuorumReads;
}

// ---------------------------------------------------------------------------
// Cluster: replication ops on shard services

void
Cluster::installQuorumOps(svc::Service *s, unsigned idx)
{
    // applyWrite: a replica leg of a quorum write (or a read repair /
    // hint replay). arg0 = entity id, arg1 = version, arg2 = entity-op
    // index. The handler records the applied version — the store data
    // itself is global state in this model, so only the version map
    // needs maintaining.
    s->addOp("applyWrite", [this, idx](svc::HandlerCtx &ctx) {
        const svc::Payload &req = ctx.request();
        const std::string entity = detail::entityOf(
            detail::entityOpName(static_cast<unsigned>(req.arg2)),
            req.arg0);
        coordinator_->recordApplied(idx, entity, req.arg1);
        ctx.response().bytes = kQuorumRespBytes;
        ctx.compute(app_.scaled(kApplyWriteCost),
                    [&ctx] { ctx.done(); });
    });

    // versionProbe: the cheap digest leg of a quorum read.
    s->addOp("versionProbe", [this, idx](svc::HandlerCtx &ctx) {
        const svc::Payload &req = ctx.request();
        const std::string entity = detail::entityOf(
            detail::entityOpName(static_cast<unsigned>(req.arg2)),
            req.arg0);
        ctx.response().bytes = kQuorumRespBytes;
        ctx.response().arg1 = coordinator_->appliedVersion(idx, entity);
        ctx.compute(app_.scaled(kProbeCost), [&ctx] { ctx.done(); });
    });

    // migrate: one bounded batch of a rebalance stream landing on the
    // receiving shard. The bytes already paid the fabric via sendVia;
    // this is the unpack/index work.
    s->addOp("migrate", [this](svc::HandlerCtx &ctx) {
        ctx.response().bytes = kQuorumRespBytes;
        ctx.compute(app_.scaled(kMigrateBatchCost),
                    [&ctx] { ctx.done(); });
    });
}

std::vector<unsigned>
Cluster::shardOwners(const std::string &entity) const
{
    return shard_ring_.ownersFor(entity,
                                 coordinator_ ? coordinator_->factor()
                                              : 1);
}

bool
Cluster::shardUp(unsigned shard) const
{
    return !shards_.at(shard)->replicaDown(0);
}

// ---------------------------------------------------------------------------
// Cluster: quorum write

void
Cluster::quorumWrite(svc::HandlerCtx &ctx, const std::string &op,
                     const std::string &entity, svc::Payload request,
                     std::function<void(const svc::Payload &)> next)
{
    QuorumCoordinator &qc = *coordinator_;
    ++qc.stats().quorumWrites;
    const std::vector<unsigned> owners = shardOwners(entity);
    const unsigned w = qc.writeQuorum();
    const std::uint64_t version = qc.beginWrite(entity);
    const Tick t0 = ctx.now();

    // Sync set: the first W owners, up ones first — a down owner in
    // the sync set would fail a write a healthy peer could ack. When
    // fewer than W owners are up the write still goes out and the
    // down legs fail fast (W=R with a partitioned replica is the
    // "blocks then times out with Unavailable" case).
    std::vector<unsigned> order;
    for (unsigned s : owners) {
        if (shardUp(s))
            order.push_back(s);
    }
    for (unsigned s : owners) {
        if (!shardUp(s))
            order.push_back(s);
    }
    const std::size_t sync_n =
        std::min<std::size_t>(w, order.size());
    const std::vector<unsigned> sync(order.begin(),
                                     order.begin() + sync_n);
    const std::vector<unsigned> async(order.begin() + sync_n,
                                      order.end());

    // The first up sync member executes the real operation; every
    // other replica applies the version. Acks only count real
    // completions — a hint is never an ack.
    std::size_t primary_leg = 0;
    for (std::size_t i = 0; i < sync.size(); ++i) {
        if (shardUp(sync[i])) {
            primary_leg = i;
            break;
        }
    }
    svc::Payload apply;
    apply.bytes = kQuorumCtrlBytes;
    apply.arg0 = request.arg0;
    apply.arg1 = version;
    apply.arg2 = entityOpIndexOf(entity);

    std::vector<svc::HandlerCtx::CallSpec> legs;
    for (std::size_t i = 0; i < sync.size(); ++i) {
        ++shard_requests_[sync[i]];
        if (i == primary_leg)
            legs.push_back({shardName(sync[i]), op, request});
        else
            legs.push_back({shardName(sync[i]), "applyWrite", apply});
    }

    const unsigned src_node = ctx.clusterNode();
    ctx.callAll(
        legs,
        [this, &ctx, sync, async, apply, entity, version, t0,
         primary_leg, src_node, next = std::move(next)](
            const std::vector<svc::Payload> &resps,
            const std::vector<svc::Status> &statuses) {
            QuorumCoordinator &qc = *coordinator_;
            unsigned acks = 0;
            for (std::size_t i = 0; i < statuses.size(); ++i) {
                if (statuses[i] == svc::Status::Ok) {
                    ++acks;
                    qc.recordApplied(sync[i], entity, version);
                }
            }
            if (acks < qc.writeQuorum()) {
                ++qc.stats().writeFailures;
                ctx.fail(svc::Status::Unavailable);
                return;
            }
            qc.ackWrite(entity, version);
            qc.writeAckNs().add(static_cast<double>(ctx.now() - t0));
            // The write is durable at quorum; owners that missed it
            // get a hint (replayed on recovery) and the async owners
            // their replication legs.
            for (std::size_t i = 0; i < statuses.size(); ++i) {
                if (statuses[i] != svc::Status::Ok)
                    queueHint(sync[i], entity, apply, version);
            }
            for (unsigned s : async) {
                if (shardUp(s))
                    asyncApply(s, entity, apply, version, src_node);
                else
                    queueHint(s, entity, apply, version);
            }
            next(resps[primary_leg]);
        });
}

void
Cluster::queueHint(unsigned shard, const std::string &entity,
                   const svc::Payload &request, std::uint64_t version)
{
    QuorumCoordinator &qc = *coordinator_;
    HintQueue::Hint h;
    h.op = "applyWrite";
    h.entity = entity;
    h.request = request;
    h.version = version;
    if (qc.hints(shard).push(std::move(h))) {
        ++qc.stats().hintsQueued;
        qc.noteHintDepth();
    } else {
        ++qc.stats().hintsDropped;
    }
}

void
Cluster::asyncApply(unsigned shard, const std::string &entity,
                    const svc::Payload &request, std::uint64_t version,
                    unsigned srcNode)
{
    ++shard_requests_[shard];
    mesh_.sendRpc(
        kQuorumClient, shardName(shard), "applyWrite", request,
        sim_.now() + kAsyncApplyDeadline, svc::Criticality::Normal,
        [this, shard, entity, request, version](const svc::Payload &,
                                                svc::Status st) {
            if (st == svc::Status::Ok) {
                coordinator_->recordApplied(shard, entity, version);
                return;
            }
            // Only acked writes are owed to the replica; an unacked
            // one was already surfaced to the client as a failure.
            if (coordinator_->ackedVersion(entity) >= version)
                queueHint(shard, entity, request, version);
        },
        {}, srcNode);
}

// ---------------------------------------------------------------------------
// Cluster: quorum read

void
Cluster::quorumRead(svc::HandlerCtx &ctx, const std::string &op,
                    const std::string &entity, svc::Payload request,
                    std::function<void(const svc::Payload &)> next)
{
    QuorumCoordinator &qc = *coordinator_;
    ++qc.stats().quorumReads;
    const Tick t0 = ctx.now();
    const std::vector<unsigned> owners = shardOwners(entity);
    std::vector<unsigned> reachable;
    for (unsigned s : owners) {
        if (shardUp(s))
            reachable.push_back(s);
    }
    const unsigned rq = qc.readQuorum();
    if (reachable.size() < rq) {
        ++qc.stats().readFailures;
        ctx.fail(svc::Status::Unavailable);
        return;
    }
    const std::vector<unsigned> sel(reachable.begin(),
                                    reachable.begin() + rq);

    svc::Payload probe;
    probe.bytes = kQuorumCtrlBytes;
    probe.arg0 = request.arg0;
    probe.arg2 = entityOpIndexOf(entity);

    std::vector<svc::HandlerCtx::CallSpec> legs;
    ++shard_requests_[sel[0]];
    legs.push_back({shardName(sel[0]), op, request});
    for (std::size_t i = 1; i < sel.size(); ++i) {
        ++shard_requests_[sel[i]];
        legs.push_back({shardName(sel[i]), "versionProbe", probe});
    }

    // Dual read while a rebalance stream is in flight: probe the
    // incoming owner too, so cutover cannot surface a version the
    // read path never saw. Advisory only until handoff completes.
    if (next_ring_ && draining_shard_ == kNoShard) {
        const unsigned incoming = next_ring_->nodeFor(entity);
        if (std::find(owners.begin(), owners.end(), incoming) ==
                owners.end() &&
            shardUp(incoming)) {
            ++qc.stats().dualReads;
            ++shard_requests_[incoming];
            legs.push_back({shardName(incoming), "versionProbe", probe});
        }
    }

    const std::uint64_t acked0 = qc.ackedVersion(entity);
    const unsigned src_node = ctx.clusterNode();
    ctx.callAll(
        legs,
        [this, &ctx, sel, op, entity, request, t0, acked0, src_node,
         next = std::move(next)](
            const std::vector<svc::Payload> &resps,
            const std::vector<svc::Status> &statuses) {
            QuorumCoordinator &qc = *coordinator_;
            // The quorum legs are the first sel.size(); a trailing
            // dual-read probe is advisory and may fail freely.
            for (std::size_t i = 0; i < sel.size(); ++i) {
                if (statuses[i] != svc::Status::Ok) {
                    ++qc.stats().readFailures;
                    ctx.fail(svc::Status::Unavailable);
                    return;
                }
            }
            std::vector<std::uint64_t> versions(sel.size());
            versions[0] = qc.appliedVersion(sel[0], entity);
            for (std::size_t i = 1; i < sel.size(); ++i)
                versions[i] = resps[i].arg1;
            std::uint64_t freshest = versions[0];
            unsigned freshest_shard = sel[0];
            for (std::size_t i = 1; i < sel.size(); ++i) {
                if (versions[i] > freshest) {
                    freshest = versions[i];
                    freshest_shard = sel[i];
                }
            }
            if (freshest < acked0)
                qc.recordStaleRead();
            // Read repair: any probed owner behind the freshest
            // version gets an async applyWrite at that version.
            svc::Payload repair;
            repair.bytes = kQuorumCtrlBytes;
            repair.arg0 = request.arg0;
            repair.arg1 = freshest;
            repair.arg2 = entityOpIndexOf(entity);
            for (std::size_t i = 0; i < sel.size(); ++i) {
                if (versions[i] < freshest) {
                    ++qc.stats().readRepairs;
                    asyncApply(sel[i], entity, repair, freshest,
                               src_node);
                }
            }
            if (versions[0] < freshest) {
                // The full read hit a stale replica: refetch from the
                // freshest one before answering.
                ++qc.stats().readRefetches;
                ctx.call(shardName(freshest_shard), op, request,
                         [this, &ctx, t0,
                          next](const svc::Payload &resp,
                                svc::Status st) {
                             QuorumCoordinator &q = *coordinator_;
                             if (st != svc::Status::Ok) {
                                 ++q.stats().readFailures;
                                 ctx.fail(svc::Status::Unavailable);
                                 return;
                             }
                             q.readNs().add(static_cast<double>(
                                 ctx.now() - t0));
                             next(resp);
                         });
                return;
            }
            qc.readNs().add(static_cast<double>(ctx.now() - t0));
            next(resps[0]);
        });
}

// ---------------------------------------------------------------------------
// Cluster: hinted handoff

void
Cluster::onShardAvailability(unsigned shard, bool down)
{
    if (down) {
        // Hints start queuing lazily as writes fail against the down
        // replica; nothing to do on this edge.
        return;
    }
    replayNextHint(shard);
}

void
Cluster::onCacheAvailability(unsigned cacheIdx, bool down)
{
    if (down)
        return;
    // A cache node returning from an outage restarts cold: entries
    // cached before the crash may predate writes whose invalidations
    // could not reach it. Flushing everything restores coherence at
    // the price of refill misses.
    CacheNodeState &cs = cache_state_[cacheIdx];
    cs.entries.clear();
    cs.lru.clear();
    cs.entityEpoch.clear();
}

void
Cluster::replayNextHint(unsigned shard)
{
    QuorumCoordinator &qc = *coordinator_;
    if (!shardUp(shard) || qc.hints(shard).empty())
        return;
    HintQueue::Hint h = qc.hints(shard).pop();
    // Chained sends preserve arrival order on the wire; versions are
    // max-merged at the replica so replay is idempotent either way.
    const unsigned src_node = static_cast<unsigned>(std::max(
        0, shards_.at(shard)->replicaClusterNode(0)));
    ++shard_requests_[shard];
    mesh_.sendRpc(
        kQuorumClient, shardName(shard), h.op, h.request,
        sim_.now() + kAsyncApplyDeadline, svc::Criticality::Normal,
        [this, shard, entity = h.entity,
         version = h.version](const svc::Payload &, svc::Status st) {
            QuorumCoordinator &qc = *coordinator_;
            if (st == svc::Status::Ok) {
                ++qc.stats().hintsReplayed;
                qc.recordApplied(shard, entity, version);
                replayNextHint(shard);
                return;
            }
            // The replica died again mid-replay; the remaining hints
            // wait for the next up edge.
        },
        {}, src_node);
}

// ---------------------------------------------------------------------------
// Cluster: scale-event rebalancing

std::uint64_t
Cluster::storeEntityCount() const
{
    const db::StoreParams &st = app_.params().store;
    const std::uint64_t products =
        static_cast<std::uint64_t>(st.categories) *
        st.productsPerCategory;
    // categories list + per-category product lists + product/img per
    // product + user/userByName/ordersOfUser per user.
    return 1 + st.categories + 2 * products +
           3 * static_cast<std::uint64_t>(st.users);
}

void
Cluster::startAddRebalance(unsigned node)
{
    QuorumCoordinator &qc = *coordinator_;
    if (next_ring_) {
        warn("rebalance already in flight; node ", node,
             " joins without a shard");
        return;
    }
    const unsigned new_shard = static_cast<unsigned>(shards_.size());
    qc.addShard();
    createShard(new_shard, node);
    next_ring_ = std::make_unique<HashRing>(shard_ring_);
    next_ring_->addNode(new_shard);
    next_ring_->setGroup(new_shard, node);
    draining_shard_ = kNoShard;
    rebalance_started_ = sim_.now();
    ++qc.stats().rebalancesStarted;
    // The joining member takes ~1/M of the keyspace.
    const std::uint64_t moved = std::max<std::uint64_t>(
        1, storeEntityCount() / next_ring_->nodeCount());
    const unsigned per_batch =
        std::max(1u, params_.replication.rebalanceBatchEntities);
    rebalance_batches_left_ = (moved + per_batch - 1) / per_batch;
    rebalance_batch_cursor_ = 0;
    migrateNextBatch();
}

void
Cluster::startDrainRebalance(unsigned shard)
{
    QuorumCoordinator &qc = *coordinator_;
    if (next_ring_) {
        warn("rebalance already in flight; drain of shard ", shard,
             " skipped");
        return;
    }
    if (shard >= shards_.size())
        fatal("drain of unknown shard ", shard);
    auto survivors = std::make_unique<HashRing>(shard_ring_);
    survivors->removeNode(shard);
    // The survivors must still span R distinct nodes.
    std::set<unsigned> groups;
    for (unsigned m : survivors->members())
        groups.insert(survivors->groupOf(m));
    if (groups.size() < qc.factor())
        fatal("draining shard ", shard, " would leave ", groups.size(),
              " distinct nodes, fewer than replication factor ",
              qc.factor());
    next_ring_ = std::move(survivors);
    draining_shard_ = shard;
    rebalance_started_ = sim_.now();
    ++qc.stats().rebalancesStarted;
    // The leaving member hands off its ~1/M share.
    const std::uint64_t moved = std::max<std::uint64_t>(
        1, storeEntityCount() / shard_ring_.nodeCount());
    const unsigned per_batch =
        std::max(1u, params_.replication.rebalanceBatchEntities);
    rebalance_batches_left_ = (moved + per_batch - 1) / per_batch;
    rebalance_batch_cursor_ = 0;
    migrateNextBatch();
}

void
Cluster::migrateNextBatch()
{
    QuorumCoordinator &qc = *coordinator_;
    if (!next_ring_) // aborted under us
        return;
    if (rebalance_batches_left_ == 0) {
        finishRebalance();
        return;
    }
    // Add: every old member streams its share to the new shard.
    // Drain: the leaving shard streams to the survivors round-robin.
    unsigned src;
    unsigned dst;
    if (draining_shard_ != kNoShard) {
        src = draining_shard_;
        const auto &members = next_ring_->members();
        dst = members[rebalance_batch_cursor_ % members.size()];
    } else {
        dst = static_cast<unsigned>(shards_.size()) - 1;
        src = static_cast<unsigned>(rebalance_batch_cursor_ %
                                    (shards_.size() - 1));
    }
    svc::Payload batch;
    batch.bytes = params_.replication.rebalanceBatchBytes;
    batch.arg0 = rebalance_batch_cursor_;
    ++qc.stats().rebalanceBatches;
    qc.stats().rebalanceBytes += batch.bytes;
    ++shard_requests_[dst];
    const unsigned src_node = static_cast<unsigned>(
        std::max(0, shards_.at(src)->replicaClusterNode(0)));
    mesh_.sendRpc(
        kRebalanceClient, shardName(dst), "migrate", batch,
        sim_.now() + kRebalanceDeadline, svc::Criticality::Normal,
        [this](const svc::Payload &, svc::Status st) {
            if (st != svc::Status::Ok) {
                abortRebalance();
                return;
            }
            --rebalance_batches_left_;
            ++rebalance_batch_cursor_;
            migrateNextBatch();
        },
        {}, src_node);
}

void
Cluster::abortRebalance()
{
    if (!next_ring_)
        return;
    // A failed batch aborts the stream: the old ring stays
    // authoritative (no retry storm, no half-moved ranges) and the
    // summary shows started > completed.
    next_ring_.reset();
    draining_shard_ = kNoShard;
    rebalance_batches_left_ = 0;
}

void
Cluster::finishRebalance()
{
    QuorumCoordinator &qc = *coordinator_;
    // Cutover: owners gained by the new ring inherit the freshest
    // applied version of every entity they now own (the batches just
    // modeled the bytes; versions are the consistency-bearing state).
    const unsigned factor = qc.factor();
    for (const std::string &entity : qc.knownEntities()) {
        const std::vector<unsigned> old_owners =
            shard_ring_.ownersFor(entity, factor);
        const std::vector<unsigned> new_owners =
            next_ring_->ownersFor(entity, factor);
        std::uint64_t best = 0;
        for (unsigned s : old_owners)
            best = std::max(best, qc.appliedVersion(s, entity));
        for (unsigned s : new_owners) {
            if (std::find(old_owners.begin(), old_owners.end(), s) ==
                old_owners.end())
                qc.recordApplied(s, entity, best);
        }
    }
    shard_ring_ = *next_ring_;
    next_ring_.reset();
    if (draining_shard_ != kNoShard) {
        // Off the ring and handed off: retire the shard. drainReplica
        // refuses on a service's last replica, so retirement is the
        // down state — off-ring, nothing routes to it anyway, and the
        // availability observer ignores the down edge.
        shards_[draining_shard_]->setReplicaDown(0, true);
        draining_shard_ = kNoShard;
    }
    ++qc.stats().rebalancesCompleted;
    qc.stats().rebalanceMsTotal +=
        ticksToMillis(sim_.now() - rebalance_started_);
}

// ---------------------------------------------------------------------------
// Cluster: post-drain verification

void
Cluster::verifyReplication(core::RunResult &result)
{
    if (!coordinator_)
        return;
    coordinator_->verifyAcked([this](const std::string &entity) {
        return shardOwners(entity);
    });
    coordinator_->harvest(result.replication);
}

} // namespace microscale::cluster
