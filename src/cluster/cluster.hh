/**
 * @file
 * Cluster: the scale-out layer joining N machines into one deployment.
 *
 * The cluster is modeled as one super-machine: each member node is a
 * copy of a per-node topology occupying its own socket group, so one
 * Simulation / ExecEngine / Kernel / Mesh runs the whole fleet while
 * socket boundaries keep per-node scheduling, frequency and cache
 * behavior exactly what a standalone machine would see. On top of
 * that:
 *
 *  - a Fabric model (net::Network::sendVia): messages whose endpoints
 *    resolve to different machines pay base + per-KiB serialization
 *    latency with an optional oversubscribed core/leaf tier, and are
 *    subject to per-fabric-link loss/partition faults;
 *  - a NodeRouter (svc::Mesh hook): external traffic enters through a
 *    rotating ingress, inter-service calls stay on the caller's
 *    machine when a local replica exists and spill to the peer with
 *    the most active capacity otherwise;
 *  - a sharded persistence tier fronted by a consistent-hash cache
 *    tier (CacheTier): Persistence data ops and full-image fetches
 *    route hash(entity) -> cache node -> owning shard, with bounded
 *    LRU caches, epoch-checked fills and write invalidation — all as
 *    ordinary mesh calls so every hop pays transport and CPU;
 *  - a NodePlacer extending autoscale::ReplicaPlacer across machines
 *    (CCX grants within a node, locality-scored spill to peers);
 *  - a NodeScaler: whole-node provisioning with warm-pool vs
 *    cold-boot lag, actuated through the Service elasticity hooks.
 *
 * A 1-node cluster with an ideal fabric and no cache/shard tier is
 * byte-identical to the single-machine runner (pinned by a golden
 * test): the router resolves every hop to machine 0 and sendVia
 * degenerates to the link-aware loopback path.
 */

#ifndef MICROSCALE_CLUSTER_CLUSTER_HH
#define MICROSCALE_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autoscale/placer.hh"
#include "cluster/quorum.hh"
#include "cluster/ring.hh"
#include "core/experiment.hh"
#include "sim/simulation.hh"
#include "svc/mesh.hh"
#include "topo/params.hh"

namespace microscale::cluster
{

namespace detail
{
/** The cacheable entity ops shared by the cache and quorum layers
 * (defined in cluster.cc; index order is the invalidation index). */
unsigned entityOpIndex(const std::string &op);
const char *entityOpName(unsigned idx);
unsigned numEntityOps();
std::string entityOf(const std::string &op, std::uint64_t id);
} // namespace detail

/** Whole-node autoscaling configuration. */
struct NodeScalerParams
{
    bool enabled = false;

    /** Utilization sampling / decision period. */
    Tick period = 500 * kMillisecond;

    /** Provision the next node when the worker-busy fraction of the
     * app services stays above this for `consecutive` periods. */
    double hiUtilization = 0.70;
    unsigned consecutive = 2;

    /** Nodes held booted-but-idle: provisioning one costs only the
     * warm lag. Beyond the pool a node cold-boots. */
    unsigned warmPool = 1;
    Tick warmBootDelay = 250 * kMillisecond;
    Tick coldBootDelay = 3 * kSecond;

    /** Minimum time between node provisions. */
    Tick cooldown = 2 * kSecond;

    /** Warm-up model of the replicas spawned on a fresh node. */
    svc::Service::WarmupParams warmup;
};

/** Everything the scale-out layer adds on top of ExperimentConfig. */
struct ClusterParams
{
    /** Machines in the cluster. nodes * per-node CPUs must fit in
     * kMaxCpus (512): 16 x server32 is the largest stock sweep. */
    unsigned nodes = 1;

    /** Machines serving traffic from the start; the rest are spare
     * capacity for the NodeScaler. 0 = all of them. */
    unsigned initialNodes = 0;

    /** Per-node topology; the cluster machine is this with sockets
     * multiplied by `nodes`. */
    topo::MachineParams nodeMachine;

    /** Fabric latency (copied into NetParams). 0/0 = ideal fabric:
     * cross-machine messages are free (but still counted). */
    Tick fabricBaseNs = 0;
    Tick fabricPerKibNs = 0;
    double fabricJitterCv = 0.0;
    /** Leaf/core tiers: racks of this many machines; inter-rack hops
     * pay fabricCoreFactor x latency. 0 = flat fabric. */
    unsigned fabricRackSize = 0;
    double fabricCoreFactor = 1.0;

    /** Persistence shards (0 disables the shard tier and the cache
     * tier with it; data ops then execute locally as ever). */
    unsigned shards = 0;
    /** Cache nodes fronting the shards (0 with shards > 0 routes
     * data ops straight to their owning shard). */
    unsigned cacheNodes = 0;
    /** LRU entries per cache node. */
    unsigned cacheCapacity = 8192;
    /** Virtual tokens per member on the cache/shard rings. */
    unsigned ringVnodes = 64;
    unsigned shardWorkers = 24;
    unsigned cacheWorkers = 16;

    /** Replicated data tier (factor 1 = the plain sharded tier). */
    ReplicationParams replication;

    NodeScalerParams scaler;
};

/**
 * Apply a named fabric preset: "ideal" (free), "lan" (12us + 400ns/KiB,
 * 10% jitter), "oversub" (lan with racks of 4 and a 2.5x core tier).
 * fatal() on unknown names.
 */
void applyFabricPreset(ClusterParams &params, const std::string &name);

/** Names accepted by applyFabricPreset. */
std::vector<std::string> fabricPresetNames();

/**
 * The cluster super-machine: `nodeMachine` with sockets multiplied by
 * `nodes`. fatal() when the result exceeds kMaxCpus or when the
 * parameters are inconsistent.
 */
topo::MachineParams clusterMachine(const ClusterParams &params);

/**
 * Cross-machine replica placement: one autoscale::ReplicaPlacer per
 * node hands out CCX grants inside that node; when the preferred node
 * is full the grant spills to the peer with the best locality score
 * (free CCX capacity, same-rack peers ahead of cross-rack ones).
 */
class NodePlacer
{
  public:
    NodePlacer(const topo::Machine &machine,
               const std::vector<CpuMask> &nodeBudgets,
               autoscale::PlacerKind kind, unsigned rackSize);

    struct NodeGrant
    {
        /** Node that actually provided the capacity. */
        unsigned node = 0;
        autoscale::PlacerGrant grant;
    };

    /** Grant one replica's capacity, preferring `preferredNode`. */
    NodeGrant grant(unsigned preferredNode);

    /** Fold a plan-placed replica into `node`'s accounting. */
    unsigned adopt(unsigned node, const CpuMask &mask, NodeId home);

    void release(unsigned node, unsigned id);

    double grantedCpus() const;

    /** Grants that landed on a different node than preferred. */
    std::uint64_t spills() const { return spills_; }

  private:
    /** Higher is better; <= 0 means "no capacity". */
    double localityScore(unsigned from, unsigned to) const;

    std::vector<std::unique_ptr<autoscale::ReplicaPlacer>> placers_;
    unsigned rack_size_ = 0;
    std::uint64_t spills_ = 0;
};

class Cluster;

/**
 * Run one scale-out experiment: `base` describes the per-node world
 * exactly as core::runExperiment would take it (base.machine is
 * ignored; params.nodeMachine defines the node), `params` the cluster
 * on top. The cluster runtime attaches as the first controller; the
 * `extra` controllers follow it in order. The result is the standard
 * RunResult with `scaleout` filled.
 */
core::RunResult runScaleout(const core::ExperimentConfig &base,
                            const ClusterParams &params,
                            const std::vector<core::Controller *> &extra = {});

/**
 * The assembled cluster runtime: routing tables, cache/shard tier and
 * node scaler. Created by runScaleout's controller when the app is
 * built; exposed for tests that drive the pieces directly.
 */
class Cluster : public teastore::ScaleoutBackend
{
  public:
    /**
     * @param plans per-node placement plans (index = node id), built
     *        over each node's socket budget; plans beyond
     *        `initialNodes` belong to spare nodes the scaler may
     *        bring up later.
     */
    Cluster(sim::Simulation &sim, svc::Mesh &mesh, teastore::App &app,
            const topo::Machine &machine, ClusterParams params,
            std::vector<core::PlacementPlan> plans,
            std::vector<CpuMask> nodeBudgets,
            autoscale::PlacerKind placerKind,
            chaos::RequestLedger *ledger = nullptr);

    ~Cluster() override;

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** ScaleoutBackend: reroute a Persistence data op through the
     * cache/shard tier. False (local execution) when shards == 0. */
    bool persistenceOp(svc::HandlerCtx &ctx,
                       const std::string &op) override;

    /** ScaleoutBackend: serve a full-image miss from the tier. */
    bool imageMiss(svc::HandlerCtx &ctx, std::uint64_t product,
                   std::uint32_t bytes) override;

    const ClusterParams &params() const { return params_; }

    /** Machines currently serving traffic. */
    unsigned activeNodes() const { return active_nodes_; }

    /** Start the node scaler's control loop (no-op when disabled). */
    void start();
    void stop();

    /** Fill the run summary (fabric, cache, shard, scaler counters). */
    void harvest(core::RunResult &result) const;

    /** Cache-tier counters (exposed for tests). */
    struct CacheStats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t invalidations = 0;
        std::uint64_t evictions = 0;
        /** Fills dropped because the entity epoch moved mid-miss. */
        std::uint64_t staleFills = 0;
    };

    const CacheStats &cacheStats() const { return cache_stats_; }

    /** Requests served by each shard (ring balance). */
    const std::vector<std::uint64_t> &shardRequests() const
    {
        return shard_requests_;
    }

    /** Node-scaler provisioning counters. */
    std::uint64_t nodesProvisioned() const { return provisions_; }

    /** One scaler decision step (exposed for tests). */
    void scalerTick();

    /** Quorum state machine (nullptr at factor 1). */
    const QuorumCoordinator *coordinator() const
    {
        return coordinator_.get();
    }

    /**
     * Post-drain verification: sweep the acked-write ledger against
     * the final ring and replica version maps, then patch the verdict
     * into the already-harvested `result` (no-op at factor 1). Call
     * after the simulation drained; runScaleout's controller does so
     * in its drained phase.
     */
    void verifyReplication(core::RunResult &result);

  private:
    class Router;

    /** One cache node's bounded LRU + entity epochs. */
    struct CacheNodeState
    {
        struct Entry
        {
            svc::Payload payload;
            /** Recency list position (back = most recent). */
            std::list<std::string>::iterator lruIt;
        };

        /** Keyed by op:arg0:arg1 (ordered, so an entity's keys form a
         * contiguous prefix range for invalidation). */
        std::map<std::string, Entry> entries;
        /** Keys, least recently used first. */
        std::list<std::string> lru;
        /** Write epoch per entity; bumped by every invalidation so a
         * fill that raced a write is detected and dropped. */
        std::map<std::string, std::uint64_t> entityEpoch;
    };

    void buildDataTier();
    void installCacheOps(unsigned cacheIdx);

    /** Insert a filled entry, evicting the LRU one at capacity. */
    void cacheFill(unsigned cacheIdx, const std::string &key,
                   const svc::Payload &payload);

    /** Route one read op through the tier (shared by the six data
     * reads and the image path). */
    void tierRead(svc::HandlerCtx &ctx, const std::string &op,
                  const std::string &entity);

    /** Forward a request to the shard owning `entity`. */
    void shardCall(svc::HandlerCtx &ctx, const std::string &op,
                   const std::string &entity, svc::Payload request,
                   std::function<void(const svc::Payload &)> next);

    std::string shardName(unsigned idx) const;
    std::string cacheName(unsigned idx) const;

    // Replicated data tier (quorum.cc). All inert at factor 1.

    /** Create one shard service on `node` and register its ops. */
    svc::Service *createShard(unsigned idx, unsigned node);

    /** Register applyWrite/versionProbe/migrate on a shard. */
    void installQuorumOps(svc::Service *s, unsigned idx);

    /** Owners of `entity` on the serving ring (factor entries). */
    std::vector<unsigned> shardOwners(const std::string &entity) const;

    bool shardUp(unsigned shard) const;

    /** Quorum write: all owners, ack at W, hints for the rest. */
    void quorumWrite(svc::HandlerCtx &ctx, const std::string &op,
                     const std::string &entity, svc::Payload request,
                     std::function<void(const svc::Payload &)> next);

    /** Quorum read: full read + R_q-1 version probes, refetch and
     * read-repair on divergence. */
    void quorumRead(svc::HandlerCtx &ctx, const std::string &op,
                    const std::string &entity, svc::Payload request,
                    std::function<void(const svc::Payload &)> next);

    /** Availability edge of shard/cache replicas (hint replay and
     * cache flush hooks). */
    void onShardAvailability(unsigned shard, bool down);
    void onCacheAvailability(unsigned cacheIdx, bool down);

    /** Replay the next queued hint for a recovered shard. */
    void replayNextHint(unsigned shard);

    /** Queue a hint for a write owed to an unreachable shard. */
    void queueHint(unsigned shard, const std::string &entity,
                   const svc::Payload &request, std::uint64_t version);

    /** Background applyWrite to one owner (async replication leg or
     * read repair), issued from cluster node `srcNode`. */
    void asyncApply(unsigned shard, const std::string &entity,
                    const svc::Payload &request, std::uint64_t version,
                    unsigned srcNode);

    /** Scale-event rebalancing: stream moved ranges to a fresh shard
     * on `node` (add) or away from a draining shard (drain). */
    void startAddRebalance(unsigned node);
    void startDrainRebalance(unsigned shard);
    void migrateNextBatch();
    void finishRebalance();
    void abortRebalance();

    /** Entities in the modeled store (rebalance volume estimate). */
    std::uint64_t storeEntityCount() const;

    /** Worker-busy fraction of the app services (scaler signal). */
    double utilization() const;

    /** Bring the next spare node into service after its boot lag. */
    void provisionNode(unsigned node, Tick decidedAt);
    void activateNode(unsigned node, Tick decidedAt);

    sim::Simulation &sim_;
    svc::Mesh &mesh_;
    teastore::App &app_;
    ClusterParams params_;
    std::vector<core::PlacementPlan> plans_;
    std::vector<CpuMask> node_budgets_;

    std::unique_ptr<Router> router_;
    std::unique_ptr<NodePlacer> placer_;

    HashRing cache_ring_;
    HashRing shard_ring_;
    std::vector<svc::Service *> shards_;
    std::vector<svc::Service *> caches_;
    std::vector<CacheNodeState> cache_state_;
    CacheStats cache_stats_;
    std::vector<std::uint64_t> shard_requests_;

    std::unique_ptr<QuorumCoordinator> coordinator_;
    chaos::RequestLedger *ledger_ = nullptr;
    /** Target ring while a rebalance stream is in flight. */
    std::unique_ptr<HashRing> next_ring_;
    /** Shard being drained (rebalance away), kNoShard otherwise. */
    static constexpr unsigned kNoShard = ~0u;
    unsigned draining_shard_ = kNoShard;
    Tick rebalance_started_ = 0;
    std::uint64_t rebalance_batches_left_ = 0;
    std::uint64_t rebalance_batch_cursor_ = 0;

    unsigned active_nodes_ = 0;
    sim::PeriodicEvent scaler_event_;
    unsigned hot_periods_ = 0;
    Tick cooldown_until_ = 0;
    unsigned warm_used_ = 0;
    std::uint64_t provisions_ = 0;
    std::uint64_t warm_provisions_ = 0;
    std::uint64_t cold_provisions_ = 0;
    std::vector<double> provision_lag_ms_;
};

} // namespace microscale::cluster

#endif // MICROSCALE_CLUSTER_CLUSTER_HH
