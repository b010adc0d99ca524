#include "cluster/cluster.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "base/logging.hh"
#include "core/placement.hh"
#include "core/world.hh"
#include "teastore/profiles.hh"
#include "topo/machine.hh"

namespace microscale::cluster
{

namespace
{

/** Instruction budgets of the cache tier's own handlers. */
constexpr double kCacheHitCost = 60e3;
constexpr double kCacheFillCost = 90e3;
constexpr double kInvalidateCost = 40e3;
/** Local page assembly after a remote image fetch (the kFullHit-class
 * work the ImageProvider still does with the bytes in hand). */
constexpr double kImageAssembleCost = 350e3;
/** Size of tier control messages (keys + ids, no payload). */
constexpr std::uint32_t kCtrlBytes = 256;

/** Ops whose results the cache tier stores, in invalidation-index
 * order (Payload::arg1 of an "invalidate" request indexes this). */
constexpr const char *kEntityOps[] = {
    "categories", "products",     "product", "userByName",
    "user",       "ordersOfUser", "img",
};

const char *const kWorkerServices[] = {
    teastore::names::kWebui,       teastore::names::kAuth,
    teastore::names::kPersistence, teastore::names::kRecommender,
    teastore::names::kImage,
};

} // namespace

namespace detail
{

unsigned
entityOpIndex(const std::string &op)
{
    for (unsigned i = 0; i < std::size(kEntityOps); ++i) {
        if (op == kEntityOps[i])
            return i;
    }
    fatal("unknown cache entity op: ", op);
}

const char *
entityOpName(unsigned idx)
{
    if (idx >= std::size(kEntityOps))
        fatal("entity-op index ", idx, " out of range");
    return kEntityOps[idx];
}

unsigned
numEntityOps()
{
    return static_cast<unsigned>(std::size(kEntityOps));
}

/** All keys of one entity live under one ring point: op plus primary
 * id, so a write can invalidate every cached page of that entity with
 * a single deterministic target. */
std::string
entityOf(const std::string &op, std::uint64_t id)
{
    return op + ":" + std::to_string(id);
}

} // namespace detail

namespace
{
using detail::entityOf;
using detail::entityOpIndex;
} // namespace

void
applyFabricPreset(ClusterParams &params, const std::string &name)
{
    if (name == "ideal") {
        params.fabricBaseNs = 0;
        params.fabricPerKibNs = 0;
        params.fabricJitterCv = 0.0;
        params.fabricRackSize = 0;
        params.fabricCoreFactor = 1.0;
    } else if (name == "lan") {
        params.fabricBaseNs = 12 * kMicrosecond;
        params.fabricPerKibNs = 400;
        params.fabricJitterCv = 0.10;
        params.fabricRackSize = 0;
        params.fabricCoreFactor = 1.0;
    } else if (name == "oversub") {
        params.fabricBaseNs = 12 * kMicrosecond;
        params.fabricPerKibNs = 400;
        params.fabricJitterCv = 0.10;
        params.fabricRackSize = 4;
        params.fabricCoreFactor = 2.5;
    } else {
        fatal("unknown fabric preset: ", name,
              " (expected ideal, lan or oversub)");
    }
}

std::vector<std::string>
fabricPresetNames()
{
    return {"ideal", "lan", "oversub"};
}

topo::MachineParams
clusterMachine(const ClusterParams &params)
{
    if (params.nodes == 0)
        fatal("cluster needs at least one node");
    topo::MachineParams m = params.nodeMachine;
    m.sockets *= params.nodes;
    if (params.nodes > 1)
        m.name = params.nodeMachine.name + "-x" +
                 std::to_string(params.nodes);
    if (m.totalCpus() > kMaxCpus)
        fatal("cluster of ", params.nodes, " x ",
              params.nodeMachine.name, " needs ", m.totalCpus(),
              " CPUs, more than the ", kMaxCpus, "-CPU ceiling");
    return m;
}

// ---------------------------------------------------------------------------
// NodePlacer

NodePlacer::NodePlacer(const topo::Machine &machine,
                       const std::vector<CpuMask> &nodeBudgets,
                       autoscale::PlacerKind kind, unsigned rackSize)
    : rack_size_(rackSize)
{
    if (nodeBudgets.empty())
        fatal("NodePlacer needs at least one node budget");
    placers_.reserve(nodeBudgets.size());
    for (const CpuMask &budget : nodeBudgets) {
        placers_.push_back(std::make_unique<autoscale::ReplicaPlacer>(
            machine, budget, kind));
    }
}

double
NodePlacer::localityScore(unsigned from, unsigned to) const
{
    const autoscale::ReplicaPlacer &p = *placers_[to];
    if (p.outstanding() >= p.groupCount())
        return 0.0;
    const double free =
        static_cast<double>(p.groupCount() - p.outstanding());
    const bool sameRack = rack_size_ == 0 ||
                          from / rack_size_ == to / rack_size_;
    return free * (sameRack ? 2.0 : 1.0);
}

NodePlacer::NodeGrant
NodePlacer::grant(unsigned preferredNode)
{
    if (preferredNode >= placers_.size())
        preferredNode = 0;
    unsigned chosen = preferredNode;
    const autoscale::ReplicaPlacer &pref = *placers_[preferredNode];
    if (pref.outstanding() >= pref.groupCount()) {
        // Preferred node is full: spill to the peer with the most free
        // CCX groups, same-rack peers weighted ahead of cross-rack
        // ones; ties go to the lowest node id. When every peer is full
        // too, the preferred node's least-loaded group doubles up.
        double best_score = 0.0;
        unsigned best = preferredNode;
        for (unsigned n = 0; n < placers_.size(); ++n) {
            if (n == preferredNode)
                continue;
            const double score = localityScore(preferredNode, n);
            if (score > best_score) {
                best_score = score;
                best = n;
            }
        }
        if (best_score > 0.0) {
            chosen = best;
            ++spills_;
        }
    }
    NodeGrant g;
    g.node = chosen;
    g.grant = placers_[chosen]->grant();
    return g;
}

unsigned
NodePlacer::adopt(unsigned node, const CpuMask &mask, NodeId home)
{
    return placers_.at(node)->adopt(mask, home);
}

void
NodePlacer::release(unsigned node, unsigned id)
{
    placers_.at(node)->release(id);
}

double
NodePlacer::grantedCpus() const
{
    double total = 0.0;
    for (const auto &p : placers_)
        total += p->grantedCpus();
    return total;
}

// ---------------------------------------------------------------------------
// Router

/**
 * Routing policy: external traffic rotates over machines with active
 * WebUI replicas (the external load balancer); inter-service calls
 * stay on the caller's machine when it has an active replica of the
 * target and otherwise go to the machine with the most active
 * capacity, ties broken by a rotating cursor. No RNG is consumed, and
 * on a 1-node cluster every answer is 0 with no state change.
 */
class Cluster::Router : public svc::NodeRouter
{
  public:
    explicit Router(Cluster &owner) : owner_(owner) {}

    unsigned route(unsigned src_node, const svc::Service &target) override
    {
        const unsigned n = owner_.params_.nodes;
        if (n <= 1)
            return 0;
        if (src_node < n &&
            target.activeReplicasOnNode(static_cast<int>(src_node)) > 0)
            return src_node;
        unsigned best = src_node < n ? src_node : 0;
        unsigned best_count = 0;
        for (unsigned i = 0; i < n; ++i) {
            const unsigned cand = (spill_cursor_ + i) % n;
            const unsigned count =
                target.activeReplicasOnNode(static_cast<int>(cand));
            if (count > best_count) {
                best = cand;
                best_count = count;
            }
        }
        spill_cursor_ = (spill_cursor_ + 1) % n;
        return best;
    }

    unsigned ingress() override
    {
        const unsigned n = owner_.params_.nodes;
        if (n <= 1)
            return 0;
        const svc::Service &webui = owner_.app_.webui();
        for (unsigned i = 0; i < n; ++i) {
            const unsigned cand = (ingress_cursor_ + i) % n;
            if (webui.activeReplicasOnNode(static_cast<int>(cand)) > 0) {
                ingress_cursor_ = (cand + 1) % n;
                return cand;
            }
        }
        return 0;
    }

  private:
    Cluster &owner_;
    unsigned ingress_cursor_ = 0;
    unsigned spill_cursor_ = 0;
};

// ---------------------------------------------------------------------------
// Cluster

Cluster::Cluster(sim::Simulation &sim, svc::Mesh &mesh,
                 teastore::App &app, const topo::Machine &machine,
                 ClusterParams params,
                 std::vector<core::PlacementPlan> plans,
                 std::vector<CpuMask> nodeBudgets,
                 autoscale::PlacerKind placerKind,
                 chaos::RequestLedger *ledger)
    : sim_(sim), mesh_(mesh), app_(app), params_(std::move(params)),
      plans_(std::move(plans)), node_budgets_(std::move(nodeBudgets)),
      cache_ring_(params_.ringVnodes), shard_ring_(params_.ringVnodes),
      ledger_(ledger)
{
    if (plans_.size() != params_.nodes ||
        node_budgets_.size() != params_.nodes)
        fatal("cluster needs one plan and budget per node (",
              params_.nodes, " nodes, ", plans_.size(), " plans, ",
              node_budgets_.size(), " budgets)");
    active_nodes_ = params_.initialNodes == 0 ? params_.nodes
                                              : params_.initialNodes;
    if (active_nodes_ > params_.nodes)
        fatal("initialNodes ", active_nodes_, " exceeds cluster size ",
              params_.nodes);

    // Tag every app replica with the machine its plan placed it on
    // (applyPlacement laid replicas out node-major), and fold those
    // grants into the cross-node placer so later node scale-outs see
    // the capacity that is already spoken for.
    placer_ = std::make_unique<NodePlacer>(machine, node_budgets_,
                                           placerKind,
                                           params_.fabricRackSize);
    for (const char *name : kWorkerServices) {
        svc::Service &s = mesh_.service(name);
        unsigned base = 0;
        for (unsigned n = 0; n < active_nodes_; ++n) {
            const core::ServicePlan &sp = plans_[n].services.at(name);
            for (unsigned r = 0; r < sp.replicas; ++r) {
                s.setReplicaClusterNode(base + r, static_cast<int>(n));
                placer_->adopt(n, sp.masks[r], sp.homes[r]);
            }
            base += sp.replicas;
        }
    }
    svc::Service &registry = mesh_.service(teastore::names::kRegistry);
    for (unsigned r = 0; r < registry.replicaCount(); ++r)
        registry.setReplicaClusterNode(r, 0);

    buildDataTier();

    router_ = std::make_unique<Router>(*this);
    mesh_.setRouter(router_.get());
}

Cluster::~Cluster() = default;

std::string
Cluster::shardName(unsigned idx) const
{
    return "shard" + std::to_string(idx);
}

std::string
Cluster::cacheName(unsigned idx) const
{
    return "cache" + std::to_string(idx);
}

void
Cluster::buildDataTier()
{
    if (params_.shards == 0) {
        if (params_.cacheNodes > 0)
            fatal("cache tier requires shards > 0");
        if (params_.replication.factor > 1)
            fatal("data replication requires shards > 0");
        return;
    }
    const unsigned factor = params_.replication.factor;
    if (factor < 1 || factor > 3)
        fatal("data replication factor must be 1-3, got ", factor);
    if (factor > 1) {
        if (factor > params_.shards)
            fatal("replication factor ", factor, " exceeds shard count ",
                  params_.shards);
        const unsigned span = std::min(params_.shards, active_nodes_);
        if (factor > span)
            fatal("replication factor ", factor,
                  " exceeds the distinct nodes hosting shards (", span,
                  ")");
        const unsigned w = resolvedWriteQuorum(params_.replication);
        const unsigned rq = resolvedReadQuorum(params_.replication);
        if (w > factor)
            fatal("write quorum ", w, " exceeds replication factor ",
                  factor);
        if (rq > factor)
            fatal("read quorum ", rq, " exceeds replication factor ",
                  factor);
        coordinator_ = std::make_unique<QuorumCoordinator>(
            params_.replication, params_.shards, ledger_);
    }
    shard_requests_.assign(params_.shards, 0);
    cache_state_.resize(params_.cacheNodes);

    // Stateful members stay pinned to the initially active machines:
    // the node scaler grows stateless app capacity; with replication
    // on, scale events instead trigger the rebalance stream.
    // Round-robin keeps shards and caches spread.
    for (unsigned j = 0; j < params_.shards; ++j) {
        const unsigned node = j % active_nodes_;
        createShard(j, node);
        shard_ring_.addNode(j);
        shard_ring_.setGroup(j, node);
    }
    for (unsigned i = 0; i < params_.cacheNodes; ++i) {
        cache_ring_.addNode(i);
        svc::ServiceParams sp;
        sp.name = cacheName(i);
        sp.profile = teastore::persistenceProfile();
        sp.replicas = 1;
        sp.workersPerReplica = params_.cacheWorkers;
        sp.batchedTiming = app_.params().batchedTiming;
        svc::Service *s = mesh_.createService(sp);
        const unsigned node = i % active_nodes_;
        s->setReplicaPlacement(0, node_budgets_[node], kInvalidNode);
        s->setReplicaClusterNode(0, static_cast<int>(node));
        caches_.push_back(s);
        installCacheOps(i);
        if (coordinator_) {
            s->addAvailabilityObserver(
                [this, i](unsigned replica, bool down) {
                    (void)replica;
                    onCacheAvailability(i, down);
                });
        }
    }
    app_.setScaleoutBackend(this);
}

svc::Service *
Cluster::createShard(unsigned idx, unsigned node)
{
    // The caller decides which ring (serving or rebalance-target)
    // the new shard joins.
    svc::ServiceParams sp;
    sp.name = shardName(idx);
    sp.profile = teastore::persistenceProfile();
    sp.replicas = 1;
    sp.workersPerReplica = params_.shardWorkers;
    sp.batchedTiming = app_.params().batchedTiming;
    svc::Service *s = mesh_.createService(sp);
    s->setReplicaPlacement(0, node_budgets_[node], kInvalidNode);
    s->setReplicaClusterNode(0, static_cast<int>(node));
    app_.installDataOps(*s, /*direct=*/true);
    app_.installImageFetchOp(*s);
    if (idx >= shard_requests_.size())
        shard_requests_.resize(idx + 1, 0);
    shards_.push_back(s);
    if (coordinator_) {
        installQuorumOps(s, idx);
        s->addAvailabilityObserver(
            [this, idx](unsigned replica, bool down) {
                (void)replica;
                onShardAvailability(idx, down);
            });
    }
    return s;
}

void
Cluster::shardCall(svc::HandlerCtx &ctx, const std::string &op,
                   const std::string &entity, svc::Payload request,
                   std::function<void(const svc::Payload &)> next)
{
    if (coordinator_) {
        quorumRead(ctx, op, entity, std::move(request),
                   std::move(next));
        return;
    }
    const unsigned shard = shard_ring_.nodeFor(entity);
    ++shard_requests_[shard];
    ctx.call(shardName(shard), op, std::move(request), std::move(next));
}

void
Cluster::cacheFill(unsigned cacheIdx, const std::string &key,
                   const svc::Payload &payload)
{
    CacheNodeState &cs = cache_state_[cacheIdx];
    auto it = cs.entries.find(key);
    if (it != cs.entries.end()) {
        // A concurrent miss for the same key already filled it.
        it->second.payload = payload;
        cs.lru.splice(cs.lru.end(), cs.lru, it->second.lruIt);
        return;
    }
    if (cs.entries.size() >= params_.cacheCapacity && !cs.lru.empty()) {
        cs.entries.erase(cs.lru.front());
        cs.lru.pop_front();
        ++cache_stats_.evictions;
    }
    cs.lru.push_back(key);
    CacheNodeState::Entry entry;
    entry.payload = payload;
    entry.lruIt = std::prev(cs.lru.end());
    cs.entries.emplace(key, std::move(entry));
}

void
Cluster::installCacheOps(unsigned cacheIdx)
{
    svc::Service *cache = caches_[cacheIdx];

    // The six data reads plus the full-image fetch: hit replays the
    // cached payload; miss fetches from the owning shard and fills,
    // unless a write invalidated the entity while the fetch was in
    // flight (epoch check) — then the stale result is served to this
    // caller but not cached.
    for (const char *op : kEntityOps) {
        const std::string op_name = op;
        const std::string shard_op =
            op_name == "img" ? "imgFetch" : op_name;
        cache->addOp(op_name, [this, cacheIdx, op_name,
                               shard_op](svc::HandlerCtx &ctx) {
            CacheNodeState &cs = cache_state_[cacheIdx];
            const svc::Payload &req = ctx.request();
            const std::string entity = entityOf(op_name, req.arg0);
            const std::string key =
                entity + ":" + std::to_string(req.arg1);
            auto it = cs.entries.find(key);
            if (it != cs.entries.end()) {
                ++cache_stats_.hits;
                cs.lru.splice(cs.lru.end(), cs.lru, it->second.lruIt);
                ctx.response() = it->second.payload;
                ctx.compute(app_.scaled(kCacheHitCost),
                            [&ctx] { ctx.done(); });
                return;
            }
            ++cache_stats_.misses;
            auto ep = cs.entityEpoch.find(entity);
            const std::uint64_t epoch0 =
                ep == cs.entityEpoch.end() ? 0 : ep->second;
            shardCall(ctx, shard_op, entity, req,
                      [this, cacheIdx, key, entity, epoch0,
                       &ctx](const svc::Payload &resp) {
                          CacheNodeState &now =
                              cache_state_[cacheIdx];
                          auto e = now.entityEpoch.find(entity);
                          const std::uint64_t epoch =
                              e == now.entityEpoch.end() ? 0
                                                         : e->second;
                          if (epoch == epoch0)
                              cacheFill(cacheIdx, key, resp);
                          else
                              ++cache_stats_.staleFills;
                          ctx.response() = resp;
                          ctx.compute(app_.scaled(kCacheFillCost),
                                      [&ctx] { ctx.done(); });
                      });
        });
    }

    cache->addOp("invalidate", [this, cacheIdx](svc::HandlerCtx &ctx) {
        CacheNodeState &cs = cache_state_[cacheIdx];
        const svc::Payload &req = ctx.request();
        if (req.arg1 >= std::size(kEntityOps))
            fatal("invalidate with bad entity-op index ", req.arg1);
        const std::string entity =
            entityOf(kEntityOps[req.arg1], req.arg0);
        ++cs.entityEpoch[entity];
        ++cache_stats_.invalidations;
        const std::string prefix = entity + ":";
        auto it = cs.entries.lower_bound(prefix);
        while (it != cs.entries.end() &&
               it->first.compare(0, prefix.size(), prefix) == 0) {
            cs.lru.erase(it->second.lruIt);
            it = cs.entries.erase(it);
        }
        ctx.response().bytes = 128;
        ctx.compute(app_.scaled(kInvalidateCost),
                    [&ctx] { ctx.done(); });
    });
}

void
Cluster::tierRead(svc::HandlerCtx &ctx, const std::string &op,
                  const std::string &entity)
{
    if (caches_.empty()) {
        // No cache tier: reads go straight to the owning shard.
        shardCall(ctx, op, entity, ctx.request(),
                  [&ctx](const svc::Payload &resp) {
                      ctx.response() = resp;
                      ctx.done();
                  });
        return;
    }
    const unsigned c = cache_ring_.nodeFor(entity);
    if (coordinator_ && caches_[c]->replicaDown(0)) {
        // Replicated tier: a dead cache node must not take its slice
        // of the keyspace down with it — bypass to a quorum read.
        const std::string shard_op = op == "img" ? "imgFetch" : op;
        quorumRead(ctx, shard_op, entity, ctx.request(),
                   [&ctx](const svc::Payload &resp) {
                       ctx.response() = resp;
                       ctx.done();
                   });
        return;
    }
    ctx.call(cacheName(c), op, ctx.request(),
             [&ctx](const svc::Payload &resp) {
                 ctx.response() = resp;
                 ctx.done();
             });
}

bool
Cluster::persistenceOp(svc::HandlerCtx &ctx, const std::string &op)
{
    if (shards_.empty())
        return false;
    const svc::Payload &req = ctx.request();
    if (op == "placeOrder") {
        // Writes go to the shard(s) owning the user's orders, then
        // invalidate that entity in its cache node so the next read
        // misses through to fresh data.
        const std::uint64_t user = req.arg0;
        const std::string entity = entityOf("ordersOfUser", user);
        auto invalidate = [this, user, entity,
                           &ctx](const svc::Payload &resp) {
            if (caches_.empty()) {
                ctx.response() = resp;
                ctx.done();
                return;
            }
            const unsigned c = cache_ring_.nodeFor(entity);
            svc::Payload inv;
            inv.bytes = kCtrlBytes;
            inv.arg0 = user;
            inv.arg1 = entityOpIndex("ordersOfUser");
            if (coordinator_) {
                // Replicated tier: a down cache node must not fail an
                // acked write. Its entries are flushed wholesale when
                // it comes back (onCacheAvailability).
                ctx.call(cacheName(c), "invalidate", inv,
                         [order = resp, &ctx](const svc::Payload &,
                                              svc::Status) {
                             ctx.response() = order;
                             ctx.done();
                         });
                return;
            }
            ctx.call(cacheName(c), "invalidate", inv,
                     [order = resp, &ctx](const svc::Payload &) {
                         ctx.response() = order;
                         ctx.done();
                     });
        };
        if (coordinator_) {
            quorumWrite(ctx, "placeOrder", entity, req,
                        std::move(invalidate));
        } else {
            shardCall(ctx, "placeOrder", entity, req,
                      std::move(invalidate));
        }
        return true;
    }
    tierRead(ctx, op, entityOf(op, req.arg0));
    return true;
}

bool
Cluster::imageMiss(svc::HandlerCtx &ctx, std::uint64_t product,
                   std::uint32_t bytes)
{
    if (shards_.empty())
        return false;
    (void)bytes; // the tier answers with the authoritative size
    const std::string entity = entityOf("img", product);
    svc::Payload req;
    req.bytes = kCtrlBytes;
    req.arg0 = product;
    auto assemble = [this, &ctx](const svc::Payload &resp) {
        ctx.response().bytes = resp.bytes;
        ctx.compute(app_.scaled(kImageAssembleCost),
                    [&ctx] { ctx.done(); });
    };
    if (caches_.empty()) {
        shardCall(ctx, "imgFetch", entity, std::move(req),
                  std::move(assemble));
        return true;
    }
    const unsigned c = cache_ring_.nodeFor(entity);
    if (coordinator_ && caches_[c]->replicaDown(0)) {
        quorumRead(ctx, "imgFetch", entity, std::move(req),
                   std::move(assemble));
        return true;
    }
    ctx.call(cacheName(c), "img", std::move(req), std::move(assemble));
    return true;
}

// ---------------------------------------------------------------------------
// Node scaler

void
Cluster::start()
{
    const ReplicationParams &rep = params_.replication;
    if (coordinator_ && rep.scaleAddNodeAt > 0) {
        if (active_nodes_ >= params_.nodes)
            fatal("scaleAddNodeAt needs a spare node (all ",
                  params_.nodes, " active)");
        sim_.scheduleAfter(
            rep.scaleAddNodeAt,
            [this] { activateNode(active_nodes_, sim_.now()); },
            /*background=*/true);
    }
    if (coordinator_ && rep.drainShardAt > 0) {
        if (rep.drainShardId >= params_.shards)
            fatal("drainShardId ", rep.drainShardId,
                  " out of range (", params_.shards, " shards)");
        sim_.scheduleAfter(
            rep.drainShardAt,
            [this] { startDrainRebalance(params_.replication.drainShardId); },
            /*background=*/true);
    }
    if (!params_.scaler.enabled)
        return;
    scaler_event_.start(sim_, params_.scaler.period,
                        [this] { scalerTick(); });
}

void
Cluster::stop()
{
    scaler_event_.stop();
}

double
Cluster::utilization() const
{
    // The bottleneck service's worker-busy fraction, not the fleet
    // mean: one saturated tier is reason enough for another machine,
    // and averaging it against idle tiers would mask exactly the
    // overload the scaler exists to absorb.
    double peak = 0.0;
    for (const char *name : kWorkerServices) {
        const svc::Service &s = mesh_.service(name);
        const double total = static_cast<double>(s.workers().size());
        if (total > 0.0)
            peak = std::max(peak, s.busyWorkers() / total);
    }
    return peak;
}

void
Cluster::scalerTick()
{
    if (active_nodes_ >= params_.nodes)
        return;
    if (utilization() > params_.scaler.hiUtilization)
        ++hot_periods_;
    else
        hot_periods_ = 0;
    if (hot_periods_ < params_.scaler.consecutive)
        return;
    if (sim_.now() < cooldown_until_)
        return;
    hot_periods_ = 0;
    cooldown_until_ = sim_.now() + params_.scaler.cooldown;
    provisionNode(active_nodes_, sim_.now());
}

void
Cluster::provisionNode(unsigned node, Tick decidedAt)
{
    Tick lag;
    if (warm_used_ < params_.scaler.warmPool) {
        ++warm_used_;
        ++warm_provisions_;
        lag = params_.scaler.warmBootDelay;
    } else {
        ++cold_provisions_;
        lag = params_.scaler.coldBootDelay;
    }
    ++provisions_;
    // Serving lag = boot + the replicas' registration delay.
    provision_lag_ms_.push_back(
        ticksToMillis(lag + params_.scaler.warmup.registrationDelay));
    sim_.scheduleAfter(
        lag, [this, node, decidedAt] { activateNode(node, decidedAt); },
        /*background=*/true);
}

void
Cluster::activateNode(unsigned node, Tick decidedAt)
{
    (void)decidedAt;
    for (const char *name : kWorkerServices) {
        const core::ServicePlan &sp = plans_[node].services.at(name);
        svc::Service &s = mesh_.service(name);
        for (unsigned r = 0; r < sp.replicas; ++r) {
            const NodePlacer::NodeGrant g = placer_->grant(node);
            const unsigned idx = s.addReplica(params_.scaler.warmup);
            s.setReplicaPlacement(idx, g.grant.mask, g.grant.home);
            s.setReplicaClusterNode(idx, static_cast<int>(g.node));
        }
    }
    active_nodes_ = std::max(active_nodes_, node + 1);
    // With replication on, a freshly joined node also takes a slice
    // of the data: spawn a shard there and stream its ranges over.
    if (coordinator_)
        startAddRebalance(node);
}

// ---------------------------------------------------------------------------
// Harvest

void
Cluster::harvest(core::RunResult &result) const
{
    core::ScaleoutSummary &so = result.scaleout;
    so.active = true;
    so.nodes = params_.nodes;
    so.activeNodesEnd = active_nodes_;
    so.shards = params_.shards;
    so.cacheNodes = params_.cacheNodes;

    const net::NetStats &net = mesh_.network().stats();
    so.fabricMessages = net.fabricMessages;
    so.fabricBytes = net.fabricBytes;
    so.fabricShare =
        net.messages > 0
            ? static_cast<double>(net.fabricMessages) /
                  static_cast<double>(net.messages)
            : 0.0;

    so.cacheHits = cache_stats_.hits;
    so.cacheMisses = cache_stats_.misses;
    so.cacheInvalidations = cache_stats_.invalidations;
    so.cacheEvictions = cache_stats_.evictions;
    const std::uint64_t lookups = cache_stats_.hits + cache_stats_.misses;
    so.cacheHitRate =
        lookups > 0 ? static_cast<double>(cache_stats_.hits) /
                          static_cast<double>(lookups)
                    : 0.0;

    std::uint64_t shard_total = 0;
    for (std::uint64_t c : shard_requests_)
        shard_total += c;
    so.shardRequests = shard_total;
    if (!shard_requests_.empty() && shard_total > 0) {
        const double mean =
            static_cast<double>(shard_total) /
            static_cast<double>(shard_requests_.size());
        double var = 0.0;
        for (std::uint64_t c : shard_requests_) {
            const double d = static_cast<double>(c) - mean;
            var += d * d;
        }
        var /= static_cast<double>(shard_requests_.size());
        so.shardLoadCv = std::sqrt(var) / mean;
    }

    so.nodesProvisioned = provisions_;
    so.warmProvisions = warm_provisions_;
    so.coldProvisions = cold_provisions_;
    if (!provision_lag_ms_.empty()) {
        double sum = 0.0;
        for (double lag : provision_lag_ms_)
            sum += lag;
        so.provisionLagMeanMs =
            sum / static_cast<double>(provision_lag_ms_.size());
    }

    if (coordinator_)
        coordinator_->harvest(result.replication);
}

// ---------------------------------------------------------------------------
// Runner

namespace
{

/** The cluster runtime attached to one run of the merged world. */
class ClusterController : public core::Controller
{
  public:
    ClusterController(const core::ExperimentConfig &base,
                      const ClusterParams &params, unsigned initial)
        : base_(base), params_(params), initial_(initial)
    {
    }

    // Per-node plans over each machine's socket group; the app is
    // built from the initially active nodes' plans concatenated
    // node-major (so replica index ranges map back to machines). The
    // registry stays a cluster singleton on node 0. Spare nodes keep
    // their plans for the scaler. On a 1-node cluster this reduces to
    // exactly buildPlacement over the whole budget.
    bool
    plan(core::World &world, core::PlacementPlan &merged) override
    {
        const unsigned spn = params_.nodeMachine.sockets;
        for (unsigned n = 0; n < params_.nodes; ++n) {
            CpuMask nb;
            for (unsigned s = n * spn; s < (n + 1) * spn; ++s)
                nb = nb | world.machine.cpusOfSocket(s);
            nb = nb & world.budget;
            budgets_.push_back(nb);
            plans_.push_back(core::buildPlacement(
                base_.placement, world.machine, nb, base_.demand,
                base_.sizing));
        }
        merged.kind = base_.placement;
        for (const char *name : kWorkerServices) {
            core::ServicePlan mp;
            mp.workers = plans_[0].services.at(name).workers;
            mp.replicas = 0;
            for (unsigned n = 0; n < initial_; ++n) {
                const core::ServicePlan &sp = plans_[n].services.at(name);
                mp.replicas += sp.replicas;
                mp.masks.insert(mp.masks.end(), sp.masks.begin(),
                                sp.masks.end());
                mp.homes.insert(mp.homes.end(), sp.homes.begin(),
                                sp.homes.end());
            }
            merged.services[name] = std::move(mp);
        }
        merged.services[teastore::names::kRegistry] =
            plans_[0].services.at(teastore::names::kRegistry);
        return true;
    }

    void
    build(core::World &world, teastore::App &app) override
    {
        const autoscale::PlacerKind placer =
            base_.placement == core::PlacementKind::OsDefault
                ? autoscale::PlacerKind::OsDefault
                : autoscale::PlacerKind::TopologyAware;
        cluster_ = std::make_unique<Cluster>(
            world.sim, world.mesh, app, world.machine, params_,
            std::move(plans_), std::move(budgets_), placer, base_.ledger);
        cluster_->start();
    }

    void
    harvest(core::RunResult &result) override
    {
        cluster_->harvest(result);
        // The scaler stops before the optional drain.
        cluster_->stop();
    }

    void
    drained(core::World &, teastore::App &, core::RunResult &result) override
    {
        cluster_->verifyReplication(result);
    }

  private:
    const core::ExperimentConfig &base_;
    const ClusterParams &params_;
    const unsigned initial_;
    std::vector<CpuMask> budgets_;
    std::vector<core::PlacementPlan> plans_;
    std::unique_ptr<Cluster> cluster_;
};

} // namespace

core::RunResult
runScaleout(const core::ExperimentConfig &base, const ClusterParams &params,
            const std::vector<core::Controller *> &extra)
{
    if (params.nodes == 0)
        fatal("cluster needs at least one node");
    if (base.cores != 0)
        fatal("cluster runs own whole machines; scale with nodes, "
              "not cores");
    if (params.cacheNodes > 0 && params.shards == 0)
        fatal("cache tier requires shards > 0");
    const unsigned initial =
        params.initialNodes == 0 ? params.nodes : params.initialNodes;
    if (initial > params.nodes)
        fatal("initialNodes ", initial, " exceeds cluster size ",
              params.nodes);

    core::ExperimentConfig cfg = base;
    cfg.machine = clusterMachine(params);
    cfg.net.fabricBaseNs = params.fabricBaseNs;
    cfg.net.fabricPerKibNs = params.fabricPerKibNs;
    cfg.net.fabricJitterCv = params.fabricJitterCv;
    cfg.net.fabricRackSize = params.fabricRackSize;
    cfg.net.fabricCoreFactor = params.fabricCoreFactor;

    ClusterController controller(base, params, initial);
    std::vector<core::Controller *> controllers{&controller};
    controllers.insert(controllers.end(), extra.begin(), extra.end());
    return core::runExperiment(cfg, controllers);
}

} // namespace microscale::cluster
