#include "trace/export.h"

#include <algorithm>

namespace c4::trace {

namespace {

/** Bind the record under @p sc into the default-constructed @p ev.
 * @throws SpecError */
void
bindEvent(JsonRecordScanner &sc, Event &ev)
{
    bool haveWhen = false, haveKind = false;
    while (sc.next()) {
        const std::string_view key = sc.key();
        if (key == "t") {
            ev.when = sc.integer("t");
            haveWhen = true;
        } else if (key == "k") {
            if (sc.kind() != Json::Kind::String ||
                !eventKindFromName(sc.stringValue(), ev.kind)) {
                sc.failValue("\"k\" must name a known event kind");
            }
            haveKind = true;
        } else if (key == "job") {
            ev.job = sc.int32("job");
        } else if (key == "node") {
            ev.node = sc.int32("node");
        } else if (key == "a") {
            ev.a = sc.integer("a");
        } else if (key == "b") {
            ev.b = sc.integer("b");
        } else if (key == "v") {
            ev.value = sc.number("v");
        } else if (key == "d") {
            ev.detail = sc.string("d");
        } else {
            sc.failKey("unknown trace record key \"" + std::string(key) +
                       "\"");
        }
    }
    if (!haveWhen || !haveKind)
        sc.failRecord("trace record needs \"t\" and \"k\"");
    PathReallocKind sub;
    if (ev.kind == EventKind::PathRealloc &&
        !pathReallocFromName(ev.detail, sub))
        sc.failRecord("\"d\" must name a path_realloc sub-kind");
    sc.finish();
}

/** Append @p event as one compact record (no newline). */
void
appendEventLine(std::string &out, const Event &event)
{
    JsonRecordWriter w(out);
    w.integer("t", event.when);
    w.string("k", eventKindName(event.kind));
    if (event.job != kInvalidId)
        w.integer("job", event.job);
    if (event.node != kInvalidId)
        w.integer("node", event.node);
    if (event.a != 0)
        w.integer("a", event.a);
    if (event.b != 0)
        w.integer("b", event.b);
    if (event.value != 0.0)
        w.number("v", event.value);
    if (!event.detail.empty())
        w.string("d", event.detail);
    w.close();
}

} // namespace

std::string
eventToJsonLine(const Event &event)
{
    std::string out;
    appendEventLine(out, event);
    return out;
}

std::string
writeJsonl(const std::vector<Event> &events)
{
    // Records average ~55 bytes; one reservation usually covers the
    // whole document.
    std::string out;
    out.reserve(events.size() * 64);
    for (const Event &ev : events) {
        appendEventLine(out, ev);
        out.push_back('\n');
    }
    return out;
}

std::vector<Event>
parseJsonl(const std::string &text)
{
    std::vector<Event> out;
    out.reserve(static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n')));
    JsonRecordScanner scanner;
    forEachJsonlRecord(text, [&](std::string_view line) {
        scanner.reset(line, "trace record must be a JSON object");
        bindEvent(scanner, out.emplace_back());
    });
    return out;
}

std::string
writeChromeTrace(const std::vector<ChromeTrack> &tracks)
{
    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    auto push = [&](const Json &obj) {
        if (!first)
            out += ",\n";
        first = false;
        out += writeJsonCompact(obj);
    };

    for (const ChromeTrack &track : tracks) {
        Json pname = Json::emptyObject();
        pname.add("name", Json::fromString("process_name"));
        pname.add("ph", Json::fromString("M"));
        pname.add("pid", Json::fromInt(track.pid));
        Json pargs = Json::emptyObject();
        pargs.add("name", Json::fromString(track.processName));
        pname.add("args", std::move(pargs));
        push(pname);

        Json tname = Json::emptyObject();
        tname.add("name", Json::fromString("thread_name"));
        tname.add("ph", Json::fromString("M"));
        tname.add("pid", Json::fromInt(track.pid));
        tname.add("tid", Json::fromInt(track.tid));
        Json targs = Json::emptyObject();
        targs.add("name", Json::fromString(track.threadName));
        tname.add("args", std::move(targs));
        push(tname);

        if (track.events == nullptr)
            continue;
        // Recompute begin/end render as a B/E slice pair only when
        // the track holds both kinds; a filter that kept one side
        // would otherwise emit unbalanced duration events, which
        // Chrome/Perfetto discard as malformed.
        bool hasBegin = false, hasEnd = false;
        for (const Event &ev : *track.events) {
            hasBegin |= ev.kind == EventKind::RecomputeBegin;
            hasEnd |= ev.kind == EventKind::RecomputeEnd;
        }
        const bool paired = hasBegin && hasEnd;
        for (const Event &ev : *track.events) {
            Json obj = Json::emptyObject();
            const bool begin =
                paired && ev.kind == EventKind::RecomputeBegin;
            const bool end =
                paired && ev.kind == EventKind::RecomputeEnd;
            obj.add("name",
                    Json::fromString(begin || end ? "recompute"
                                                  : eventKindName(ev.kind)));
            obj.add("ph", Json::fromString(begin ? "B" : end ? "E" : "i"));
            if (!begin && !end)
                obj.add("s", Json::fromString("t"));
            // trace_event timestamps are microseconds; keep them
            // exact (ns/1000 may not be integral).
            obj.add("ts",
                    Json::fromDouble(static_cast<double>(ev.when) / 1000.0));
            obj.add("pid", Json::fromInt(track.pid));
            obj.add("tid", Json::fromInt(track.tid));
            Json args = Json::emptyObject();
            if (ev.job != kInvalidId)
                args.add("job", Json::fromInt(ev.job));
            if (ev.node != kInvalidId)
                args.add("node", Json::fromInt(ev.node));
            if (ev.a != 0)
                args.add("a", Json::fromInt(ev.a));
            if (ev.b != 0)
                args.add("b", Json::fromInt(ev.b));
            if (ev.value != 0.0)
                args.add("v", Json::fromDouble(ev.value));
            if (!ev.detail.empty())
                args.add("d", Json::fromString(ev.detail));
            if (!args.object.empty())
                obj.add("args", std::move(args));
            push(obj);
        }
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

} // namespace c4::trace
