#include "c4d/metrics_sink.h"

namespace c4::c4d {

void
MetricsTelemetrySink::onEvent(const trace::Event &ev)
{
    switch (ev.kind) {
      case trace::EventKind::SteeringDecision:
        registry_.addCounter("c4d.restarts");
        if (ev.b != 0)
            registry_.addCounter("c4d.restarts_via_c4d");
        // Detection latency: C4D event (or watchdog kill) to restart.
        registry_.setGauge("c4d.recovery_latency_s", ev.value);
        registry_.observe("c4d.recovery_latency_window_s", ev.value);
        return;
      case trace::EventKind::CnpSample:
        registry_.setGauge("c4d.cnp_mean_kps", ev.value);
        registry_.setGauge("c4d.cnp_hot_nics",
                           static_cast<double>(ev.a));
        registry_.observe("c4d.cnp_kps", ev.value);
        return;
      default:
        return;
    }
}

} // namespace c4::c4d
