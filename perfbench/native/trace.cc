/**
 * @file
 * Link-time wrappers around each layer's public entry points, linked
 * into msim_traced only.
 *
 * Each WRAP line names one entry point by its mangled name; the build
 * passes -Wl,--wrap=<name> for it, so every call from another object
 * file lands in the wrapper, which opens a Span (timed) or bumps a
 * Count (count-only, for the hottest lookups) and calls the real
 * function. Calls inside the defining .cc file never reach the
 * wrapper; their cost stays with the caller's span.
 *
 * Overloads share a metric name; perfbench/run.py sums them.
 */

#include <string>
#include <vector>

#include "span.hh"

#include "apps/socialnet/app.hh"
#include "base/cpumask.hh"
#include "cluster/cluster.hh"
#include "cpu/exec.hh"
#include "db/store.hh"
#include "net/network.hh"
#include "os/kernel.hh"
#include "os/thread.hh"
#include "sim/simulation.hh"
#include "svc/mesh.hh"
#include "svc/service.hh"
#include "teastore/app.hh"
#include "topo/machine.hh"

using namespace microscale;
using perfbench::kApp;
using perfbench::kBase;
using perfbench::kCluster;
using perfbench::kCpu;
using perfbench::kDb;
using perfbench::kNet;
using perfbench::kOs;
using perfbench::kSim;
using perfbench::kSvc;
using perfbench::kTopo;

using svc::HandlerCtx;
using svc::Payload;
using svc::RespondFn;
using svc::ResponseFn;

// ---- sim: event core (private members; the object pointer is first) --

WRAP(_ZN10microscale3sim10Simulation8heapPushEmmj,
     "sim.Simulation.heapPush", kSim, Count, void,
     (sim::Simulation * self, Tick when, std::uint64_t seq,
      std::uint32_t slot),
     (self, when, seq, slot))

WRAP(_ZN10microscale3sim10Simulation11cancelEventEjj,
     "sim.Simulation.cancelEvent", kSim, Count, void,
     (sim::Simulation * self, std::uint32_t slot, std::uint32_t gen),
     (self, slot, gen))

// ---- cpu: exec model ---------------------------------------------------

WRAP(_ZN10microscale3cpu10ExecEngine8startRunERNS0_11ExecContextEj,
     "cpu.startRun", kCpu, Span, void,
     (cpu::ExecEngine * self, cpu::ExecContext &ctx, CpuId cpu),
     (self, ctx, cpu))

WRAP(_ZN10microscale3cpu10ExecEngine7stopRunERNS0_11ExecContextE,
     "cpu.stopRun", kCpu, Span, void,
     (cpu::ExecEngine * self, cpu::ExecContext &ctx), (self, ctx))

WRAP(_ZN10microscale3cpu10ExecEngine7setWorkERNS0_11ExecContextERKNS0_11WorkProfileEdNS_3sim7EventFnE,
     "cpu.setWork", kCpu, Span, void,
     (cpu::ExecEngine * self, cpu::ExecContext &ctx,
      const cpu::WorkProfile &profile, double instructions,
      sim::EventFn on_complete),
     (self, ctx, profile, instructions, std::move(on_complete)))

WRAP(_ZN10microscale3cpu10ExecEngine14chargeOverheadEjmPNS0_12PerfCountersE,
     "cpu.chargeOverhead", kCpu, Span, void,
     (cpu::ExecEngine * self, CpuId cpu, Tick duration,
      cpu::PerfCounters *attribute_to),
     (self, cpu, duration, attribute_to))

// ---- os: scheduler -----------------------------------------------------

WRAP(_ZN10microscale2os6Kernel4wakeEPNS0_6ThreadE,
     "os.Kernel.wake", kOs, Span, void,
     (os::Kernel * self, os::Thread *t), (self, t))

WRAP(_ZN10microscale2os6Kernel14onWorkCompleteEPNS0_6ThreadE,
     "os.Kernel.onWorkComplete", kOs, Span, void,
     (os::Kernel * self, os::Thread *t), (self, t))

WRAP(_ZN10microscale2os6Thread3runERKNS_3cpu11WorkProfileEdNS_3sim7EventFnE,
     "os.Thread.run", kOs, Span, void,
     (os::Thread * self, const cpu::WorkProfile &profile,
      double instructions, sim::EventFn on_done),
     (self, profile, instructions, std::move(on_done)))

// ---- topo, base: lookups (count-only) ----------------------------------

WRAP(_ZNK10microscale4topo7Machine5ccxOfEj,
     "topo.ccxOf", kTopo, Count, CcxId,
     (const topo::Machine *self, CpuId cpu), (self, cpu))

WRAP(_ZNK10microscale4topo7Machine9siblingOfEj,
     "topo.siblingOf", kTopo, Count, CpuId,
     (const topo::Machine *self, CpuId cpu), (self, cpu))

WRAP(_ZNK10microscale4topo7Machine9cpusOfCcxEj,
     "topo.cpusOfCcx", kTopo, Count, CpuMask,
     (const topo::Machine *self, CcxId ccx), (self, ccx))

WRAP(_ZNK10microscale4topo7Machine10cpusOfNodeEj,
     "topo.cpusOfNode", kTopo, Count, CpuMask,
     (const topo::Machine *self, NodeId node), (self, node))

WRAP(_ZNK10microscale7CpuMask4nextEj,
     "base.CpuMask.next", kBase, Count, CpuId,
     (const CpuMask *self, CpuId cpu), (self, cpu))

// ---- net: network ------------------------------------------------------

WRAP(_ZN10microscale3net7Network4sendEjNS_3sim7EventFnE,
     "net.Network.send", kNet, Span, void,
     (net::Network * self, std::uint32_t bytes, sim::EventFn deliver),
     (self, bytes, std::move(deliver)))

WRAP(_ZN10microscale3net7Network4sendEjRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_NS_3sim7EventFnE,
     "net.Network.send", kNet, Span, void,
     (net::Network * self, std::uint32_t bytes, const std::string &from,
      const std::string &to, sim::EventFn deliver),
     (self, bytes, from, to, std::move(deliver)))

WRAP(_ZN10microscale3net7Network7sendViaEjRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_jjNS_3sim7EventFnE,
     "net.Network.sendVia", kNet, Span, void,
     (net::Network * self, std::uint32_t bytes, const std::string &from,
      const std::string &to, unsigned src_node, unsigned dst_node,
      sim::EventFn deliver),
     (self, bytes, from, to, src_node, dst_node, std::move(deliver)))

// ---- svc: mesh and handler context -------------------------------------

WRAP(_ZN10microscale3svc4Mesh13callExternalSERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_NS0_7PayloadESt8functionIFvRKSA_NS0_6StatusEEE,
     "svc.Mesh.callExternalS", kSvc, Span, void,
     (svc::Mesh * self, const std::string &service, const std::string &op,
      Payload payload, RespondFn respond),
     (self, service, op, payload, std::move(respond)))

WRAP(_ZN10microscale3svc4Mesh7sendRpcERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_S9_NS0_7PayloadEmNS0_11CriticalityESt8functionIFvRKSA_NS0_6StatusEEENS_5trace9TraceLinkEj,
     "svc.Mesh.sendRpc", kSvc, Span, void,
     (svc::Mesh * self, const std::string &client,
      const std::string &service, const std::string &op, Payload payload,
      Tick deadline, svc::Criticality inherited, RespondFn respond,
      trace::TraceLink link, unsigned src_node),
     (self, client, service, op, payload, deadline, inherited,
      std::move(respond), link, src_node))

WRAP(_ZN10microscale3svc10HandlerCtx4callERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_NS0_7PayloadESt8functionIFvRKSA_EE,
     "svc.HandlerCtx.call", kSvc, Span, void,
     (HandlerCtx * self, const std::string &service, const std::string &op,
      Payload request, ResponseFn next),
     (self, service, op, request, std::move(next)))

WRAP(_ZN10microscale3svc10HandlerCtx4callERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_NS0_7PayloadESt8functionIFvRKSA_NS0_6StatusEEE,
     "svc.HandlerCtx.call", kSvc, Span, void,
     (HandlerCtx * self, const std::string &service, const std::string &op,
      Payload request, RespondFn next),
     (self, service, op, request, std::move(next)))

using AllFn = std::function<void(const std::vector<Payload> &)>;
using AllStatusFn = std::function<void(const std::vector<Payload> &,
                                       const std::vector<svc::Status> &)>;

WRAP(_ZN10microscale3svc10HandlerCtx7callAllESt6vectorINS1_8CallSpecESaIS3_EESt8functionIFvRKS2_INS0_7PayloadESaIS7_EEEE,
     "svc.HandlerCtx.callAll", kSvc, Span, void,
     (HandlerCtx * self, std::vector<HandlerCtx::CallSpec> calls,
      AllFn next),
     (self, std::move(calls), std::move(next)))

WRAP(_ZN10microscale3svc10HandlerCtx7callAllESt6vectorINS1_8CallSpecESaIS3_EESt8functionIFvRKS2_INS0_7PayloadESaIS7_EERKS2_INS0_6StatusESaISC_EEEE,
     "svc.HandlerCtx.callAll", kSvc, Span, void,
     (HandlerCtx * self, std::vector<HandlerCtx::CallSpec> calls,
      AllStatusFn next),
     (self, std::move(calls), std::move(next)))

WRAP(_ZN10microscale3svc10HandlerCtx7computeEdNS_3sim7EventFnE,
     "svc.HandlerCtx.compute", kSvc, Span, void,
     (HandlerCtx * self, double instructions, sim::EventFn next),
     (self, instructions, std::move(next)))

// ---- db: data store ----------------------------------------------------

WRAP(_ZNK10microscale2db5Store7productEjRNS0_9QueryCostE,
     "db.Store.product", kDb, Span, const db::Product *,
     (const db::Store *self, db::ProductId id, db::QueryCost &cost),
     (self, id, cost))

WRAP(_ZNK10microscale2db5Store18productsInCategoryEjjjRNS0_9QueryCostE,
     "db.Store.productsInCategory", kDb, Span, std::vector<db::ProductId>,
     (const db::Store *self, db::CategoryId cat, unsigned offset,
      unsigned limit, db::QueryCost &cost),
     (self, cat, offset, limit, cost))

WRAP(_ZN10microscale2db5Store10placeOrderEjRKSt6vectorINS0_9OrderItemESaIS3_EEmRNS0_9QueryCostE,
     "db.Store.placeOrder", kDb, Span, db::OrderId,
     (db::Store * self, db::UserId user,
      const std::vector<db::OrderItem> &items, Tick now,
      db::QueryCost &cost),
     (self, user, items, now, cost))

// ---- cluster: cache/shard/quorum tier ----------------------------------

WRAP(_ZN10microscale7cluster7Cluster10quorumReadERNS_3svc10HandlerCtxERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESC_NS2_7PayloadESt8functionIFvRKSD_EE,
     "cluster.Cluster.quorumRead", kCluster, Span, void,
     (cluster::Cluster * self, HandlerCtx &ctx, const std::string &op,
      const std::string &entity, Payload request, ResponseFn next),
     (self, ctx, op, entity, request, std::move(next)))

WRAP(_ZN10microscale7cluster7Cluster11quorumWriteERNS_3svc10HandlerCtxERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESC_NS2_7PayloadESt8functionIFvRKSD_EE,
     "cluster.Cluster.quorumWrite", kCluster, Span, void,
     (cluster::Cluster * self, HandlerCtx &ctx, const std::string &op,
      const std::string &entity, Payload request, ResponseFn next),
     (self, ctx, op, entity, request, std::move(next)))

// ---- loadgen and apps: request sampling --------------------------------

WRAP(_ZNK10microscale8teastore3App13sampleRequestENS0_6OpTypeERNS_3RngE,
     "teastore.App.sampleRequest", kApp, Span, Payload,
     (const teastore::App *self, teastore::OpType op, Rng &rng),
     (self, op, rng))

WRAP(_ZNK10microscale9socialnet3App13sampleRequestENS0_6OpTypeERNS_3RngE,
     "socialnet.App.sampleRequest", kApp, Span, Payload,
     (const socialnet::App *self, socialnet::OpType op, Rng &rng),
     (self, op, rng))
