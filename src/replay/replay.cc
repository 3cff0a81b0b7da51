#include "replay/replay.h"

#include <stdexcept>
#include <string>

namespace c4::replay {

void
ReplayClock::advanceTo(Time when, std::size_t index)
{
    if (when < now_) {
        throw std::runtime_error(
            "trace time regression at record #" +
            std::to_string(index + 1) + ": t=" + std::to_string(when) +
            " after t=" + std::to_string(now_) +
            " (corrupted or hand-edited trace?)");
    }
    now_ = when;
}

void
feedTrace(const std::vector<trace::Event> &events,
          c4d::TelemetrySink &sink)
{
    ReplayClock clock;
    for (std::size_t i = 0; i < events.size(); ++i) {
        clock.advanceTo(events[i].when, i);
        sink.onEvent(events[i]);
    }
}

std::vector<c4d::IncidentVerdict>
replayTrace(const std::vector<trace::Event> &events)
{
    c4d::IncidentAnalyzer analyzer;
    feedTrace(events, analyzer);
    return analyzer.finish();
}

} // namespace c4::replay
