/**
 * @file
 * Tests for the spec-file subsystem: JSON parsing errors carry
 * line/column and survive fuzz-ish inputs, the binder catches typos
 * and type mistakes, dump -> parse -> re-dump is byte-identical for
 * every registered scenario (this binary links the full c4bench
 * registration set), and a file-loaded spec produces CSV output
 * byte-identical to its built-in twin.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>

#include "scenario/runner.h"
#include "scenario/sink.h"
#include "specio/specio.h"

namespace c4::specio {
namespace {

using scenario::Registry;
using scenario::RunOptions;
using scenario::Scenario;
using scenario::ScenarioRunner;

/** Smallest document the binder accepts. */
std::string
minimalSpec(const std::string &variantBody = "\"variant\": \"v\"")
{
    return "{\"scenario\": \"t\", \"variants\": [{" + variantBody +
           "}]}";
}

// --- JSON layer -------------------------------------------------------

TEST(Json, ReportsLineAndColumn)
{
    try {
        parseJson("{\n  \"a\": 1,\n  \"b\": }\n");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_EQ(e.line(), 3);
        EXPECT_EQ(e.column(), 8);
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
}

TEST(Json, RejectsDuplicateKeys)
{
    try {
        parseJson("{\"tasks\": 1,\n \"tasks\": 2}");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate key"),
                  std::string::npos);
        EXPECT_EQ(e.line(), 2);
    }
}

TEST(Json, RejectsOutOfRangeNumbers)
{
    EXPECT_THROW(parseJson("{\"x\": 1e999}"), SpecError);
    EXPECT_THROW(parseJson("{\"x\": -1e999}"), SpecError);
    EXPECT_THROW(formatJsonDouble(
                     std::numeric_limits<double>::infinity()),
                 SpecError);
}

TEST(Json, StrictAboutLeadingZerosAndControlCharacters)
{
    EXPECT_THROW(parseJson("{\"x\": 01}"), SpecError);
    EXPECT_THROW(parseJson("{\"x\": -01.5}"), SpecError);
    EXPECT_EQ(parseJson("{\"x\": 0.5}").find("x")->value.number, 0.5);
    EXPECT_EQ(parseJson("{\"x\": 0}").find("x")->value.integer, 0);
    EXPECT_THROW(parseJson("{\"x\": \"a\tb\"}"), SpecError);
    EXPECT_EQ(parseJson("{\"x\": \"a\\tb\"}").find("x")->value.string,
              "a\tb");
}

TEST(Json, AppendersMatchThePrintfFormatting)
{
    // Strings: '"' and '\\' get a backslash, control bytes become
    // "\\u00xx" as snprintf("\\u%04x") wrote them, all else is verbatim.
    for (int b = 0; b < 256; ++b) {
        const char c = static_cast<char>(b);
        std::string expected = "\"a";
        if (c == '"' || c == '\\') {
            expected += '\\';
            expected += c;
        } else if (b < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", b);
            expected += buf;
        } else {
            expected += c;
        }
        expected += "b\"";
        std::string out;
        appendJsonString(out, std::string("a") + c + "b");
        EXPECT_EQ(out, expected) << "byte " << b;
    }

    // Doubles: the shortest of snprintf's %.15g/%.16g/%.17g that
    // strtod reads back exactly, with ".0" on integer-looking tokens.
    auto printfForm = [](double v) {
        char buf[40];
        for (int precision = 15; precision <= 17; ++precision) {
            std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
            if (std::strtod(buf, nullptr) == v)
                break;
        }
        std::string out = buf;
        if (out.find_first_of(".eE") == std::string::npos)
            out += ".0";
        return out;
    };
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 1e15, 1e16, 1e17,
        123456789012345678.0, 1e-4, 1e-5, 100000.0, 1e21, 12.47835092903174,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::lowest()};
    std::mt19937_64 rng(0xD0B1E);
    while (values.size() < 200000) {
        const std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        if (std::isfinite(v))
            values.push_back(v);
        values.push_back(static_cast<double>(rng() % 1000000) /
                         static_cast<double>(1 + rng() % 1000));
    }
    for (double v : values) {
        std::string out;
        appendJsonDouble(out, v);
        ASSERT_EQ(out, printfForm(v)) << v;
        ASSERT_EQ(formatJsonDouble(v), out);
    }

    std::string ints;
    appendJsonInt(ints, std::numeric_limits<std::int64_t>::min());
    ints += ' ';
    appendJsonInt(ints, 0);
    ints += ' ';
    appendJsonInt(ints, std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(ints, "-9223372036854775808 0 9223372036854775807");
}

TEST(Json, RejectsTrailingContent)
{
    EXPECT_THROW(parseJson("{} {}"), SpecError);
    EXPECT_THROW(parseJson("null null"), SpecError);
}

TEST(Json, ParsesEscapesAndNumbers)
{
    const Json doc = parseJson(
        "{\"s\": \"a\\n\\u0041\", \"i\": -42, \"d\": 2.5e2}");
    EXPECT_EQ(doc.find("s")->value.string, "a\nA");
    EXPECT_EQ(doc.find("i")->value.integer, -42);
    EXPECT_DOUBLE_EQ(doc.find("d")->value.number, 250.0);

    // The int64 bounds stay integers and one past them is a double; so
    // is a token far longer than any number the writers produce.
    const Json nums = parseJson("[-9223372036854775808, "
                                "9223372036854775807, "
                                "9223372036854775808, 0." +
                                std::string(80, '0') + "25e81]");
    ASSERT_EQ(nums.array.size(), 4u);
    EXPECT_EQ(nums.array[0].kind, Json::Kind::Int);
    EXPECT_EQ(nums.array[0].integer,
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(nums.array[1].kind, Json::Kind::Int);
    EXPECT_EQ(nums.array[1].integer,
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(nums.array[2].kind, Json::Kind::Double);
    EXPECT_EQ(nums.array[2].number, 9223372036854775808.0);
    EXPECT_EQ(nums.array[3].kind, Json::Kind::Double);
    EXPECT_EQ(nums.array[3].number, 2.5);
}

TEST(Json, WriterIsStableUnderReparse)
{
    const std::string text = writeJson(parseJson(
        "{\"a\": [1, 2.5, \"x\"], \"b\": {\"c\": true}, "
        "\"d\": null}"));
    EXPECT_EQ(writeJson(parseJson(text)), text);
}

// --- binder errors ----------------------------------------------------

TEST(SpecParse, UnknownKeySuggestsNearest)
{
    try {
        parseSpecFile(minimalSpec(
            "\"variant\": \"v\", \"topology\": "
            "{\"oversubscripton\": 2.0}"));
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown key \"oversubscripton\""),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("did you mean \"oversubscription\"?"),
                  std::string::npos)
            << what;
        EXPECT_GT(e.line(), 0);
    }
}

TEST(SpecParse, UnknownKeyWithoutNeighborGetsNoSuggestion)
{
    try {
        parseSpecFile(
            minimalSpec("\"variant\": \"v\", \"zzz_qqq\": 1"));
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown key \"zzz_qqq\""),
                  std::string::npos);
        EXPECT_EQ(what.find("did you mean"), std::string::npos)
            << what;
    }
}

TEST(SpecParse, WrongTypeNamesBothKinds)
{
    try {
        parseSpecFile(minimalSpec(
            "\"variant\": \"v\", \"allreduces\": "
            "[{\"tasks\": \"three\"}]"));
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("\"tasks\" must be a integer"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("not string"), std::string::npos) << what;
    }
}

TEST(SpecParse, BadEnumListsAllowedValues)
{
    try {
        parseSpecFile(minimalSpec(
            "\"variant\": \"v\", \"topology\": "
            "{\"kind\": \"mesh\"}"));
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("\"mesh\""), std::string::npos);
        EXPECT_NE(what.find("\"testbed\""), std::string::npos) << what;
        EXPECT_NE(what.find("\"pod\""), std::string::npos) << what;
    }
}

TEST(SpecParse, RequiresScenarioNameAndVariants)
{
    EXPECT_THROW(parseSpecFile("{\"variants\": [{}]}"), SpecError);
    EXPECT_THROW(parseSpecFile("{\"scenario\": \"x\"}"), SpecError);
    EXPECT_THROW(
        parseSpecFile("{\"scenario\": \"x\", \"variants\": []}"),
        SpecError);
    EXPECT_THROW(
        parseSpecFile("{\"scenario\": \"no spaces\", "
                      "\"variants\": [{}]}"),
        SpecError);
}

TEST(SpecParse, DuplicateVariantLabelsRejected)
{
    try {
        parseSpecFile("{\"scenario\": \"t\", \"variants\": "
                      "[{\"variant\": \"v\"},\n"
                      "{\"variant\": \"v\"}]}");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("duplicate variant label \"v\""),
                  std::string::npos);
        EXPECT_EQ(e.line(), 2);
    }
}

TEST(SpecParse, SeedAcceptsHexStringAndInteger)
{
    const std::string base = "{\"scenario\": \"t\", \"seed\": ";
    const std::string tail = ", \"variants\": [{}]}";
    EXPECT_EQ(parseSpecFile(base + "\"0xAB\"" + tail).seed, 0xABu);
    EXPECT_EQ(parseSpecFile(base + "77" + tail).seed, 77u);
    // Decimal, never octal — and no whitespace/sign sneaking past.
    EXPECT_EQ(parseSpecFile(base + "\"077\"" + tail).seed, 77u);
    EXPECT_THROW(parseSpecFile(base + "\" 5\"" + tail), SpecError);
    EXPECT_THROW(parseSpecFile(base + "\"-5\"" + tail), SpecError);
    EXPECT_THROW(parseSpecFile(base + "\"wat\"" + tail), SpecError);
    EXPECT_THROW(parseSpecFile(base + "-1" + tail), SpecError);
}

TEST(SpecParse, InvalidWorkloadFailsValidation)
{
    // Binder-clean but semantically invalid: campaign without a span.
    try {
        parseSpecFile(minimalSpec(
            "\"variant\": \"v\", \"campaign\": "
            "{\"enabled\": true}"));
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("span"),
                  std::string::npos);
    }
}

TEST(SpecParse, ExactSecondsSurviveTheDecimalEncoding)
{
    const SpecFile file = parseSpecFile(minimalSpec(
        "\"variant\": \"v\", \"horizon_s\": 0.123456789, "
        "\"metrics\": {\"split_at_s\": 1e-3}"));
    EXPECT_EQ(file.variants[0].horizon, 123456789);
    EXPECT_EQ(file.variants[0].metrics.splitAt, milliseconds(1));
}

TEST(SpecParse, DurationExponentsOutsideTheBoundAreRejected)
{
    EXPECT_EQ(parseSpecFile(minimalSpec("\"variant\": \"v\", "
                                        "\"horizon_s\": 1e+1"))
                  .variants[0]
                  .horizon,
              seconds(10));
    // Exponents that wrap int used to load as 1e9 s and 1 s.
    for (const char *value :
         {"1e41", "1e-41", "1e-4294967287", "1e-4294967296",
          "1e-99999999999999999999"}) {
        try {
            parseSpecFile(minimalSpec(
                std::string("\"variant\": \"v\", \"horizon_s\": ") +
                value));
            ADD_FAILURE() << value << " accepted";
        } catch (const SpecError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "does not fit an integer-nanosecond duration"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SpecParse, TruncatedDocumentsAlwaysErrorCleanly)
{
    // A document exercising every section of the schema.
    const std::string text = writeSpecFile(parseSpecFile(
        "{\"scenario\": \"fuzz\", \"title\": \"t\", "
        "\"full_trials\": 3, \"seed\": \"0xF00\", \"variants\": [{"
        "\"variant\": \"v\", "
        "\"topology\": {\"kind\": \"pod\", \"num_nodes\": 32}, "
        "\"features\": {\"c4p\": true, \"c4d\": true, "
        "\"evaluate_period_s\": 2.5}, "
        "\"jobs\": [{\"id\": 3, \"model\": \"gpt22b\", "
        "\"parallel\": {\"tp\": 8, \"dp\": 4}, \"nodes\": [0, 1, 2, "
        "3]}], "
        "\"allreduces\": [{\"tasks\": 2, \"bytes\": 1048576}], "
        "\"link_events\": [{\"at_s\": 1, \"plane\": \"right\"}], "
        "\"faults\": [{\"at_s\": 2, \"type\": \"slow_node\", "
        "\"node\": 5, \"severity\": 4.0}], "
        "\"campaign\": {\"enabled\": true, \"span_s\": 60}, "
        "\"metrics\": {\"steering_counters\": true}, "
        "\"horizon_s\": 120}]}"));
    // Every proper prefix (up to the final '}') must throw SpecError —
    // never crash, never silently succeed.
    for (std::size_t len = 0; len + 1 < text.size(); ++len) {
        EXPECT_THROW(parseSpecFile(text.substr(0, len)), SpecError)
            << "prefix length " << len;
    }
}

// --- shard trial-range keys (trial_begin / trial_count) ---------------

TEST(SpecParse, TrialRangeKeysBindAndRoundTripByteStably)
{
    const std::string text = writeSpecFile(parseSpecFile(
        "{\"scenario\": \"t\", \"full_trials\": 8, "
        "\"smoke_trials\": 8, \"trial_begin\": 2, "
        "\"trial_count\": 3, \"variants\": [{\"variant\": \"v\"}]}"));
    const SpecFile file = parseSpecFile(text);
    EXPECT_EQ(file.trialBegin, 2);
    EXPECT_EQ(file.trialCount, 3);
    // Canonical dump carries the keys and is stable under re-parse.
    EXPECT_NE(text.find("\"trial_begin\": 2"), std::string::npos);
    EXPECT_NE(text.find("\"trial_count\": 3"), std::string::npos);
    EXPECT_EQ(text, writeSpecFile(parseSpecFile(text)));
    // The bound scenario carries the range into the runner.
    const Scenario s = scenarioFromSpec(file);
    EXPECT_EQ(s.trialBegin, 2);
    EXPECT_EQ(s.trialCount, 3);
}

TEST(SpecParse, UnshardedSpecsOmitTrialRangeKeys)
{
    const SpecFile file = parseSpecFile(minimalSpec());
    EXPECT_EQ(file.trialBegin, 0);
    EXPECT_EQ(file.trialCount, 0);
    const std::string text = writeSpecFile(file);
    EXPECT_EQ(text.find("trial_begin"), std::string::npos);
    EXPECT_EQ(text.find("trial_count"), std::string::npos);
}

TEST(SpecParse, NegativeTrialRangeRejected)
{
    const std::string head = "{\"scenario\": \"t\", "
                             "\"full_trials\": 8, ";
    const std::string tail = "\"variants\": [{}]}";
    try {
        parseSpecFile(head + "\"trial_begin\": -1, " + tail);
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("trial_begin must be >= 0"),
                  std::string::npos);
    }
    try {
        parseSpecFile(head + "\"trial_count\": -2, " + tail);
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("trial_count must not be negative"),
                  std::string::npos);
    }
}

TEST(SpecParse, TrialRangeBeginPastSweepEndRejected)
{
    // trial_begin at (or past) the sweep width: out of range even
    // with no count.
    try {
        parseSpecFile("{\"scenario\": \"t\", \"full_trials\": 4, "
                      "\"trial_begin\": 4, \"variants\": [{}]}");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("out of range"),
                  std::string::npos);
    }
}

TEST(SpecParse, TrialRangeOverlappingSweepEndRejected)
{
    // A count reaching past the last trial would overlap trials the
    // sweep does not have.
    try {
        parseSpecFile("{\"scenario\": \"t\", \"full_trials\": 4, "
                      "\"trial_begin\": 2, \"trial_count\": 3, "
                      "\"variants\": [{}]}");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("overflows"),
                  std::string::npos);
    }
    // The range is validated against the wider of the two trial
    // counts, so a shard planned for the full sweep still loads when
    // smoke_trials is smaller (the runner re-checks at run time).
    EXPECT_NO_THROW(parseSpecFile(
        "{\"scenario\": \"t\", \"full_trials\": 8, "
        "\"smoke_trials\": 2, \"trial_begin\": 4, "
        "\"trial_count\": 4, \"variants\": [{}]}"));
}

TEST(SpecParse, CustomVariantLoadsButRefusesToRun)
{
    const SpecFile file = parseSpecFile(
        minimalSpec("\"variant\": \"v\", \"custom\": true"));
    ASSERT_TRUE(static_cast<bool>(file.variants[0].custom));
    RunOptions opt;
    scenario::TrialContext ctx(opt, 1, 0);
    EXPECT_THROW(file.variants[0].custom(ctx), std::runtime_error);
}

// --- round-trip over the full registration set ------------------------
// These need the c4bench registrations linked in (the
// c4bench_scenarios object library, C4_HAVE_BENCH_SCENARIOS).

#ifdef C4_HAVE_BENCH_SCENARIOS

TEST(SpecRoundTrip, EveryRegisteredScenarioIsByteStable)
{
    const auto all = Registry::instance().all();
    ASSERT_GE(all.size(), 14u);
    for (bool smoke : {true, false}) {
        RunOptions opt;
        opt.smoke = smoke;
        for (const Scenario *s : all) {
            opt.trials = smoke ? s->smokeTrials : s->fullTrials;
            opt.seed = s->seed;
            opt.seedSet = true;
            const std::string once =
                writeSpecFile(specFromScenario(*s, opt));
            SpecFile reloaded;
            ASSERT_NO_THROW(reloaded = parseSpecFile(once))
                << s->name;
            const std::string twice = writeSpecFile(
                specFromScenario(scenarioFromSpec(reloaded), opt));
            EXPECT_EQ(once, twice)
                << s->name << (smoke ? " (smoke)" : " (full)");
        }
    }
}

// --- file-loaded twin produces identical CSV --------------------------

TEST(SpecRoundTrip, LoadedSpecCsvMatchesBuiltinByteForByte)
{
    const Scenario *builtin =
        Registry::instance().find("fig9_dualport");
    ASSERT_NE(builtin, nullptr);

    RunOptions opt;
    opt.smoke = true;
    opt.trials = 1;
    opt.threads = 1;

    const Scenario loaded = scenarioFromSpec(parseSpecFile(
        writeSpecFile(specFromScenario(*builtin, opt))));

    auto runCsv = [&](const Scenario &s) {
        std::ostringstream out;
        scenario::CsvSink sink(out);
        ScenarioRunner runner(opt);
        runner.addSink(sink);
        EXPECT_EQ(runner.run(s), 0);
        return out.str();
    };
    const std::string builtinCsv = runCsv(*builtin);
    const std::string loadedCsv = runCsv(loaded);
    EXPECT_FALSE(builtinCsv.empty());
    EXPECT_EQ(builtinCsv, loadedCsv);
}

#endif // C4_HAVE_BENCH_SCENARIOS

} // namespace
} // namespace c4::specio
