#include "svc/fault.hh"

#include "base/logging.hh"
#include "svc/mesh.hh"

namespace microscale::svc
{

const char *
faultKindName(FaultEvent::Kind kind)
{
    switch (kind) {
    case FaultEvent::Kind::ReplicaDown:
        return "replica-down";
    case FaultEvent::Kind::ReplicaUp:
        return "replica-up";
    case FaultEvent::Kind::Slowdown:
        return "slowdown";
    case FaultEvent::Kind::LatencyFactor:
        return "latency-factor";
    case FaultEvent::Kind::ReplicaSlow:
        return "replica-slow";
    case FaultEvent::Kind::PacketLoss:
        return "packet-loss";
    case FaultEvent::Kind::PacketDup:
        return "packet-dup";
    case FaultEvent::Kind::Partition:
        return "partition";
    case FaultEvent::Kind::PartitionHeal:
        return "partition-heal";
    case FaultEvent::Kind::CorrelatedDown:
        return "correlated-down";
    case FaultEvent::Kind::CorrelatedUp:
        return "correlated-up";
    case FaultEvent::Kind::NodeDown:
        return "node-down";
    case FaultEvent::Kind::NodeUp:
        return "node-up";
    case FaultEvent::Kind::FabricLoss:
        return "fabric-loss";
    case FaultEvent::Kind::FabricPartition:
        return "fabric-partition";
    case FaultEvent::Kind::FabricHeal:
        return "fabric-heal";
    }
    return "?";
}

bool
faultIsLinkKind(FaultEvent::Kind kind)
{
    switch (kind) {
    case FaultEvent::Kind::PacketLoss:
    case FaultEvent::Kind::PacketDup:
    case FaultEvent::Kind::Partition:
    case FaultEvent::Kind::PartitionHeal:
        return true;
    default:
        return false;
    }
}

namespace
{

/** Kinds whose `replica` field indexes a replica of `service`. */
bool
replicaTargeted(FaultEvent::Kind kind)
{
    return kind == FaultEvent::Kind::ReplicaDown ||
           kind == FaultEvent::Kind::ReplicaUp ||
           kind == FaultEvent::Kind::ReplicaSlow;
}

/** True when the name is a routable endpoint for a link fault. */
bool
validLinkEndpoint(Mesh &mesh, const std::string &name)
{
    return name == kExternalClient || mesh.hasService(name);
}

} // namespace

FaultInjector::FaultInjector(Mesh &mesh, FaultScript script)
    : mesh_(mesh), script_(std::move(script))
{
}

void
FaultInjector::arm()
{
    if (armed_)
        MS_PANIC("fault injector armed twice");
    armed_ = true;
    for (const FaultEvent &e : script_.events) {
        // Validate what is knowable now so a structurally bad script
        // fails at arm() time; replica indexes are re-checked at
        // apply-time (the autoscaler may add replicas mid-run).
        switch (e.kind) {
        case FaultEvent::Kind::ReplicaDown:
        case FaultEvent::Kind::ReplicaUp:
        case FaultEvent::Kind::ReplicaSlow:
        case FaultEvent::Kind::Slowdown:
            mesh_.service(e.service); // fatal() when absent
            break;
        case FaultEvent::Kind::PacketLoss:
        case FaultEvent::Kind::PacketDup:
        case FaultEvent::Kind::Partition:
        case FaultEvent::Kind::PartitionHeal:
            if (!validLinkEndpoint(mesh_, e.service) ||
                !validLinkEndpoint(mesh_, e.peer)) {
                fatal("fault script: link fault endpoint '", e.service,
                      "'<->'", e.peer, "' is not a service");
            }
            break;
        case FaultEvent::Kind::FabricLoss:
        case FaultEvent::Kind::FabricPartition:
        case FaultEvent::Kind::FabricHeal:
            // Fabric faults name cluster nodes, not services; a
            // self-link can never carry traffic.
            if (e.replica == e.peerReplica) {
                fatal("fault script: fabric fault needs two distinct "
                      "nodes, got ",
                      e.replica, "<->", e.peerReplica);
            }
            break;
        case FaultEvent::Kind::LatencyFactor:
        case FaultEvent::Kind::CorrelatedDown:
        case FaultEvent::Kind::CorrelatedUp:
        case FaultEvent::Kind::NodeDown:
        case FaultEvent::Kind::NodeUp:
            break;
        }
        switch (e.kind) {
        case FaultEvent::Kind::PacketLoss:
        case FaultEvent::Kind::PacketDup:
        case FaultEvent::Kind::FabricLoss:
            if (e.factor < 0.0 || e.factor > 1.0) {
                fatal("fault script: ", faultKindName(e.kind),
                      " probability must be in [0,1]");
            }
            break;
        case FaultEvent::Kind::Slowdown:
        case FaultEvent::Kind::LatencyFactor:
        case FaultEvent::Kind::ReplicaSlow:
            if (e.factor <= 0.0)
                fatal("fault script: factor must be positive");
            break;
        default:
            break;
        }
        // Background: a pending fault must not keep the simulation
        // alive once the workload has drained.
        mesh_.kernel().sim().scheduleAt(
            e.at, [this, &e] { apply(e); }, /*background=*/true);
    }
}

void
FaultInjector::apply(const FaultEvent &event)
{
    // A replica index may be stale by apply-time (scripted against a
    // sizing the autoscaler has since shrunk) or early (targets a
    // replica the autoscaler has not added yet). Warn and skip: chaos
    // schedules must stay applicable to any evolving topology.
    if (replicaTargeted(event.kind)) {
        Service &svc = mesh_.service(event.service);
        if (event.replica >= svc.replicaCount()) {
            ++skipped_;
            warn("fault: skipping ", faultKindName(event.kind), " ",
                 event.service, "#", event.replica, " (only ",
                 svc.replicaCount(), " replicas)");
            return;
        }
    }
    ++applied_;
    if (replicaTargeted(event.kind))
        verbose("fault: ", faultKindName(event.kind), " ", event.service,
                "#", event.replica);
    else if (faultIsLinkKind(event.kind))
        verbose("fault: ", faultKindName(event.kind), " ", event.service,
                "<->", event.peer);
    else
        verbose("fault: ", faultKindName(event.kind), " ", event.service,
                "x", std::to_string(event.factor));
    switch (event.kind) {
    case FaultEvent::Kind::ReplicaDown:
        mesh_.service(event.service).setReplicaDown(event.replica, true);
        break;
    case FaultEvent::Kind::ReplicaUp:
        mesh_.service(event.service).setReplicaDown(event.replica, false);
        break;
    case FaultEvent::Kind::Slowdown:
        mesh_.service(event.service).setSlowdown(event.factor);
        break;
    case FaultEvent::Kind::LatencyFactor:
        mesh_.network().setLatencyFactor(event.factor);
        break;
    case FaultEvent::Kind::ReplicaSlow:
        mesh_.service(event.service)
            .setReplicaSlow(event.replica, event.factor);
        break;
    case FaultEvent::Kind::PacketLoss:
        mesh_.network().setLinkLoss(event.service, event.peer,
                                    event.factor);
        break;
    case FaultEvent::Kind::PacketDup:
        mesh_.network().setLinkDup(event.service, event.peer,
                                   event.factor);
        break;
    case FaultEvent::Kind::Partition:
        mesh_.network().setPartition(event.service, event.peer, true);
        break;
    case FaultEvent::Kind::PartitionHeal:
        mesh_.network().setPartition(event.service, event.peer, false);
        break;
    case FaultEvent::Kind::CorrelatedDown:
        applyCorrelated(event.replica, true);
        break;
    case FaultEvent::Kind::CorrelatedUp:
        applyCorrelated(event.replica, false);
        break;
    case FaultEvent::Kind::NodeDown:
        applyNode(event.replica, true);
        break;
    case FaultEvent::Kind::NodeUp:
        applyNode(event.replica, false);
        break;
    case FaultEvent::Kind::FabricLoss:
        mesh_.network().setFabricLoss(event.replica, event.peerReplica,
                                      event.factor);
        break;
    case FaultEvent::Kind::FabricPartition:
        mesh_.network().setFabricPartition(event.replica,
                                           event.peerReplica, true);
        break;
    case FaultEvent::Kind::FabricHeal:
        mesh_.network().setFabricPartition(event.replica,
                                           event.peerReplica, false);
        break;
    }
}

void
FaultInjector::applyNode(unsigned node, bool down)
{
    // Whole-machine failure: every replica placed on the cluster node
    // goes down (or comes back) together. On a single-machine mesh no
    // replica carries a cluster node, so the event warns and skips —
    // the same stale-target policy replica faults follow.
    unsigned touched = 0;
    for (const auto &svc : mesh_.services()) {
        for (unsigned r = 0; r < svc->replicaCount(); ++r) {
            if (svc->replicaClusterNode(r) == static_cast<int>(node)) {
                svc->setReplicaDown(r, down);
                ++touched;
            }
        }
    }
    if (touched == 0) {
        --applied_;
        ++skipped_;
        warn("fault: ", down ? "node-down" : "node-up", " node ", node,
             " matched no replicas");
    }
}

void
FaultInjector::applyCorrelated(unsigned domain, bool down)
{
    // Every replica (of every service) whose workers are pinned to the
    // failed CCX domain goes down together. Replicas with machine-wide
    // affinity have no single home and are unaffected; a CorrelatedDown
    // against an OS-default placement is therefore a no-op.
    for (const auto &svc : mesh_.services()) {
        for (unsigned r = 0; r < svc->replicaCount(); ++r) {
            if (svc->replicaCcx(r) == static_cast<int>(domain))
                svc->setReplicaDown(r, down);
        }
    }
}

} // namespace microscale::svc
