#ifndef BESTPEER_WORKLOAD_SIM_RUN_H_
#define BESTPEER_WORKLOAD_SIM_RUN_H_

#include <cstdint>
#include <memory>

#include "net/sim_transport.h"
#include "obs/flight_recorder.h"
#include "obs/timeseries.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/ids.h"
#include "util/metrics.h"
#include "util/sim_time.h"
#include "util/trace.h"
#include "workload/fault_options.h"

namespace bestpeer::workload {

/// Observability knobs of a simulated run, shared by the experiment,
/// churn and scenario drivers. Defaults keep everything off. The env
/// variables below apply to every driver alike, through SimRun:
///  - BP_TRACE_OUT forces `trace` on and receives the Chrome-trace JSON;
///  - BP_FLIGHT_OUT enables the flight recorder (default capacity),
///    receives its NDJSON dump, and is where anomalies auto-dump mid-run;
///  - BP_SAMPLE_INTERVAL_US (microseconds) overrides `sample_interval`.
struct ObsOptions {
  /// Record per-query trace spans (query launch, agent hops, scans,
  /// answer return) against the virtual clock.
  bool trace = false;
  /// Sim-time sampling cadence for the result's `timeseries` (0 = off).
  SimTime sample_interval = 0;
  /// Flight-recorder ring capacity in events (0 = off).
  size_t flight_capacity = 0;
};

/// What every simulated run hands back next to its own per-query rows.
/// SimRun::Finish fills it.
struct RunArtifacts {
  /// Total bytes that crossed the simulated wire.
  uint64_t wire_bytes = 0;
  /// Snapshot of every instrument the run touched (net.*, cpu.*, fault.*,
  /// liglo.*, agent.*, core.*, storm.*).
  metrics::Snapshot metrics;
  /// Per-query trace spans, present iff tracing was on.
  std::shared_ptr<trace::TraceRecorder> trace;
  /// Periodic Registry samples, non-empty iff sampling was on.
  obs::TimeSeries timeseries;
  /// Flight-recorder ring, present iff flight recording was on.
  std::shared_ptr<obs::FlightRecorder> flight;
};

/// The setup and teardown every simulated driver shares: one metrics
/// registry, simulator, SimNetwork, transport fleet and (optional)
/// sampler, built in the only order that works — the registry first so
/// its instruments outlive every component holding handles, the flight
/// recorder before any protocol registers message-type names, and the
/// fault injector before the network binds to it. SimRun is the only
/// reader of the observability env variables (see ObsOptions).
class SimRun {
 public:
  /// `seed` is the run seed the fault stream derives from; `net` is used
  /// as given except that its metrics sink becomes this run's registry.
  SimRun(const ObsOptions& options, const FaultRecoveryOptions& fault,
         uint64_t seed, sim::NetworkOptions net = {});
  SimRun(const SimRun&) = delete;
  SimRun& operator=(const SimRun&) = delete;

  metrics::Registry* registry() { return &registry_; }
  sim::Simulator& simulator() { return simulator_; }
  sim::SimNetwork& network() { return *network_; }
  net::SimTransportFleet& fleet() { return *fleet_; }

  /// Re-arms the sampler (no-op when sampling is off). Call before every
  /// run of the simulator: the sampler parks when the queue drains.
  void ArmSampler();

  /// Records one span covering a whole query, from issue to last answer
  /// (no-op when tracing is off).
  void RecordQuerySpan(NodeId base, uint64_t query_id, SimTime start,
                       SimTime duration);

  /// Fills `out` with the run's wire bytes, metrics, trace, flight ring
  /// and timeseries, and writes the BP_TRACE_OUT / BP_FLIGHT_OUT dumps.
  void Finish(RunArtifacts* out);

 private:
  // Declared first so instruments outlive every component holding handles.
  metrics::Registry registry_;
  sim::Simulator simulator_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::unique_ptr<obs::SamplerDriver> sampler_driver_;
  // Built in the constructor body, after the recorders and the injector.
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<net::SimTransportFleet> fleet_;
};

}  // namespace bestpeer::workload

#endif  // BESTPEER_WORKLOAD_SIM_RUN_H_
