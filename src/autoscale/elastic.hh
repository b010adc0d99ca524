/**
 * @file
 * Elastic runs: the Autoscaler control loop as a core::Controller.
 *
 * An elastic run is a core::runExperiment run whose config carries a
 * LoadSchedule (non-homogeneous Poisson arrivals) with the autoscaler
 * attached as a controller: it plans the initial deployment, actuates
 * the Service elasticity hooks and fills RunResult::elastic with the
 * FIG-13 metrics (SLO-violation seconds, core-seconds granted,
 * scale-out lag, peak replicas). Windows, harvest, drain and ledger
 * are the shared runner's, so results compare with any other run.
 *
 * Lives in src/autoscale (not core) so core never depends on the
 * autoscaler.
 */

#ifndef MICROSCALE_AUTOSCALE_ELASTIC_HH
#define MICROSCALE_AUTOSCALE_ELASTIC_HH

#include "autoscale/autoscaler.hh"
#include "core/experiment.hh"
#include "loadgen/schedule.hh"

namespace microscale::autoscale
{

/** Everything one elastic run needs. */
struct ElasticConfig
{
    /**
     * Base world configuration. Its loadSchedule is the offered load
     * over time and must be non-empty; placement/sizing describe the
     * initial deployment the autoscaler starts from.
     */
    core::ExperimentConfig base;

    /**
     * Physical cores the *initial* deployment is planned over
     * (0 = the whole base.cores budget). The autoscaler always scales
     * into the full budget; a smaller initial footprint is how a
     * deployment tuned for nominal load leaves headroom to grow.
     */
    unsigned initialCores = 0;

    /** Run the control loop (false = static deployment, but the
     * accounting - core-seconds, SLO seconds - still runs via a
     * Static-policy autoscaler). */
    bool autoscale = true;

    AutoscalerParams autoscaler;

    /** Keep the per-interval sample timeline in the telemetry. */
    bool recordTimeline = false;
};

/**
 * Run one elastic experiment: runExperiment on config.base with the
 * autoscaler attached as the first controller and the `extra`
 * controllers after it, in order. The autoscaler's plan places the
 * initial deployment over the initialCores budget. Returns the
 * standard RunResult with `elastic` filled; `telemetryOut`, when
 * non-null, receives the raw control-loop telemetry (timelines,
 * per-event lags).
 */
core::RunResult runElastic(const ElasticConfig &config,
                           AutoscalerTelemetry *telemetryOut = nullptr,
                           const std::vector<core::Controller *> &extra = {});

/**
 * The canonical schedule shapes of the elasticity experiments, scaled
 * to a run's windows so FIG-13, msim --schedule and the examples all
 * agree: "constant" holds baseRps; "spike" ramps to peakRps a third
 * into the measurement window (ramp measure/12, hold measure/6, ramp
 * down measure/24); "diurnal" oscillates between baseRps and peakRps
 * with period measure/2. fatal() on any other name.
 */
loadgen::LoadSchedule makeSchedule(const std::string &name,
                                   double baseRps, double peakRps,
                                   Tick warmup, Tick measure);

} // namespace microscale::autoscale

#endif // MICROSCALE_AUTOSCALE_ELASTIC_HH
