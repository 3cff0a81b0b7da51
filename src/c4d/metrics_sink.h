/**
 * @file
 * TelemetrySink that folds C4D's restart and congestion events into a
 * live MetricRegistry: restart counters, the detection-to-restart
 * recovery-latency gauge and window, and CNP-rate gauges and window.
 * Only steering_decision and cnp_sample events reach it, from the
 * steering service and the spec trial's CNP sampler; every other kind
 * is ignored. The detectors never learn that metrics exist.
 */

#ifndef C4_C4D_METRICS_SINK_H
#define C4_C4D_METRICS_SINK_H

#include "c4d/telemetry.h"
#include "obs/metrics.h"

namespace c4::c4d {

class MetricsTelemetrySink final : public TelemetrySink
{
  public:
    explicit MetricsTelemetrySink(obs::MetricRegistry &registry)
        : registry_(registry)
    {
    }

    void onEvent(const trace::Event &ev) override;

  private:
    obs::MetricRegistry &registry_;
};

} // namespace c4::c4d

#endif // C4_C4D_METRICS_SINK_H
