/**
 * @file
 * Tests for the spec-file subsystem: JSON parsing errors carry
 * line/column and survive fuzz-ish inputs, the binder catches typos
 * and type mistakes, the smoke overrides select and override exactly,
 * claims are checked against the variants and render only when both
 * of theirs ran, dump -> parse -> re-dump is byte-identical for every
 * registered scenario (this binary links the full c4bench
 * registration set), every embedded paper spec is canonical, and a
 * reloaded dump produces CSV output byte-identical to the scenario it
 * was dumped from.
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

#ifdef C4_HAVE_BENCH_SCENARIOS
#include "paper_specs.h"
#endif

namespace c4::specio {
namespace {

using scenario::Claim;
using scenario::Registry;
using scenario::RunOptions;
using scenario::Scenario;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;
using scenario::TrialResult;

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
        "\"horizon_s\": 120}], "
        "\"smoke\": {\"variants\": [\"v\"], \"horizon_s\": 0.5, "
        "\"iterations\": 2}, "
        "\"claims\": [{\"label\": \"l\", \"metric\": \"m\", "
        "\"variant\": \"v\", \"baseline\": \"v\", \"scale\": 2.0, "
        "\"paper\": 1.5, \"expect\": \"below\"}]}"));
    // Every proper prefix (up to the final '}') must throw SpecError —
    // never crash, never silently succeed.
    auto expectEveryPrefixThrows = [](const std::string &doc,
                                      std::string_view name) {
        for (std::size_t len = 0; len + 1 < doc.size(); ++len) {
            EXPECT_THROW(parseSpecFile(doc.substr(0, len)), SpecError)
                << name << " prefix length " << len;
        }
    };
    expectEveryPrefixThrows(text, "fuzz");
#ifdef C4_HAVE_BENCH_SCENARIOS
    for (const bench::PaperSpec &spec : bench::paperSpecs())
        expectEveryPrefixThrows(std::string(spec.text), spec.name);
#endif
}

// --- smoke overrides and claims ---------------------------------------

/** Three variants: a with two allreduce groups, b with a job, c with
 * one of each. */
std::string
smokeSpec(const std::string &smoke, const std::string &claims = "")
{
    return "{\"scenario\": \"t\", \"variants\": ["
           "{\"variant\": \"a\", \"allreduces\": [{\"iterations\": 9}, "
           "{\"tasks\": 2}], \"horizon_s\": 7}, "
           "{\"variant\": \"b\", \"jobs\": [{}], \"horizon_s\": 60}, "
           "{\"variant\": \"c\", \"allreduces\": [{}], "
           "\"jobs\": [{}], \"horizon_s\": 30}]" +
           (smoke.empty() ? "" : ", \"smoke\": " + smoke) +
           (claims.empty() ? "" : ", \"claims\": " + claims) + "}";
}

std::vector<ScenarioSpec>
variantsAt(const SpecFile &file, bool smoke)
{
    RunOptions opt;
    opt.smoke = smoke;
    return scenarioFromSpec(file).variants(opt);
}

TEST(SpecParse, SmokeSectionSelectsAndOverridesExactly)
{
    const SpecFile file = parseSpecFile(smokeSpec(
        "{\"variants\": [\"a\", \"c\"], \"horizon_s\": 1.5, "
        "\"iterations\": 2}"));
    EXPECT_EQ(file.smoke.variants, (std::vector<std::string>{"a", "c"}));
    EXPECT_EQ(file.smoke.horizon, milliseconds(1500));
    EXPECT_EQ(file.smoke.iterations, 2);

    // Full fidelity: the variants as written.
    const std::vector<ScenarioSpec> full = variantsAt(file, false);
    ASSERT_EQ(full.size(), 3u);
    EXPECT_EQ(full[0].allreduces[0].iterations, 9);
    EXPECT_EQ(full[0].horizon, seconds(7));

    // Smoke: the listed variants in order, horizon and every group's
    // iterations replaced, and nothing else touched.
    const std::vector<ScenarioSpec> smoke = variantsAt(file, true);
    ASSERT_EQ(smoke.size(), 2u);
    for (std::size_t i = 0; i < smoke.size(); ++i) {
        ScenarioSpec expected = full[i == 0 ? 0 : 2];
        expected.horizon = milliseconds(1500);
        for (auto &g : expected.allreduces)
            g.iterations = 2;
        SpecFile one, other;
        one.variants = {expected};
        other.variants = {smoke[i]};
        EXPECT_EQ(writeSpecFile(one), writeSpecFile(other)) << i;
    }

    // Each override is optional: a horizon alone keeps every variant
    // and every iteration count.
    const std::vector<ScenarioSpec> horizonOnly =
        variantsAt(parseSpecFile(smokeSpec("{\"horizon_s\": 3}")), true);
    ASSERT_EQ(horizonOnly.size(), 3u);
    for (const ScenarioSpec &spec : horizonOnly)
        EXPECT_EQ(spec.horizon, seconds(3)) << spec.variant;
    EXPECT_EQ(horizonOnly[0].allreduces[0].iterations, 9);
    EXPECT_EQ(horizonOnly[0].allreduces[1].iterations, 25);

    // No smoke section: smoke runs the variants as written.
    const SpecFile plain = parseSpecFile(smokeSpec(""));
    EXPECT_EQ(variantsAt(plain, true).size(), 3u);
    EXPECT_EQ(variantsAt(plain, true)[1].horizon, seconds(60));
    EXPECT_EQ(writeSpecFile(plain).find("smoke"), std::string::npos);
}

TEST(SpecParse, SmokeVariantsMustBeASubsequence)
{
    const std::pair<const char *, const char *> cases[] = {
        {"{\"variants\": [\"a\", \"x\"]}", "\"x\" is not in"},
        {"{\"variants\": [\"c\", \"a\"]}", "out of order"},
        {"{\"variants\": [\"a\", \"a\"]}", "out of order or repeated"},
        {"{\"horizon_s\": -1}", "must not be negative"},
        {"{\"iterations\": -3}", "must not be negative"},
        {"{\"horizon\": 3}", "did you mean \"horizon_s\""},
    };
    for (const auto &[smoke, message] : cases) {
        try {
            parseSpecFile(smokeSpec(smoke));
            ADD_FAILURE() << smoke << " loaded";
        } catch (const SpecError &e) {
            EXPECT_NE(std::string(e.what()).find(message),
                      std::string::npos)
                << smoke << ": " << e.what();
        }
    }
}

TEST(SpecParse, ClaimsMustNameKnownVariants)
{
    const std::string good = "{\"label\": \"l\", \"metric\": \"m\", "
                             "\"variant\": \"c\", \"baseline\": \"a\"";
    const SpecFile file = parseSpecFile(smokeSpec("", "[" + good + "}]"));
    ASSERT_EQ(file.claims.size(), 1u);
    EXPECT_EQ(file.claims[0].variant, "c");
    EXPECT_EQ(file.claims[0].scale, 1.0);
    EXPECT_EQ(file.claims[0].expect, Claim::Expect::None);
    EXPECT_EQ(scenarioFromSpec(file).claims.size(), 1u);

    const std::pair<std::string, const char *> cases[] = {
        {"{\"label\": \"l\", \"metric\": \"m\", \"variant\": \"x\", "
         "\"baseline\": \"a\"}",
         "names variant \"x\", which is not in"},
        {"{\"label\": \"l\", \"metric\": \"m\", \"variant\": \"a\", "
         "\"baseline\": \"y\"}",
         "names variant \"y\", which is not in"},
        {"{\"metric\": \"m\", \"variant\": \"a\", \"baseline\": \"c\"}",
         "needs a \"label\""},
        {good + ", \"scale\": 0.0}", "needs a scale > 0"},
        {good + ", \"expect\": \"up\"}", "is not one of \"above\""},
    };
    for (const auto &[claim, message] : cases) {
        try {
            parseSpecFile(smokeSpec("", "[" + claim + "]"));
            ADD_FAILURE() << claim << " loaded";
        } catch (const SpecError &e) {
            EXPECT_NE(std::string(e.what()).find(message),
                      std::string::npos)
                << claim << ": " << e.what();
        }
    }
}

TEST(SpecParse, DumpsKeepOnlyClaimsWhoseVariantsRun)
{
    const SpecFile file = parseSpecFile(smokeSpec(
        "{\"variants\": [\"a\", \"b\"]}",
        "[{\"label\": \"ab\", \"metric\": \"m\", \"variant\": \"a\", "
        "\"baseline\": \"b\"}, {\"label\": \"ac\", \"metric\": \"m\", "
        "\"variant\": \"a\", \"baseline\": \"c\"}]"));
    RunOptions opt;
    opt.smoke = true;
    const SpecFile dumped = specFromScenario(scenarioFromSpec(file), opt);
    EXPECT_TRUE(dumped.smoke.variants.empty());
    ASSERT_EQ(dumped.claims.size(), 1u);
    EXPECT_EQ(dumped.claims[0].label, "ab");
    // So the dump reloads.
    EXPECT_NO_THROW(parseSpecFile(writeSpecFile(dumped)));
}

TrialResult
trial(const std::string &variant, double value)
{
    TrialResult r;
    r.variant = variant;
    r.metrics = {{"m", value}, {"other", 1.0}};
    return r;
}

TEST(Claims, RenderOnlyWhenBothVariantsRanWithAPositiveBaseline)
{
    // Means: a = 3, b = 2, z = 0.
    const std::vector<TrialResult> results = {
        trial("a", 2.0), trial("a", 4.0), trial("b", 2.0),
        trial("z", 0.0)};
    auto claim = [](const char *variant, const char *baseline,
                    Claim::Expect expect = Claim::Expect::None) {
        Claim c;
        c.label = std::string(variant) + "/" + baseline;
        c.metric = "m";
        c.variant = variant;
        c.baseline = baseline;
        c.expect = expect;
        return c;
    };
    Claim scaled = claim("a", "b");
    scaled.scale = 100.0;
    scaled.paper = 1.703;
    EXPECT_EQ(scenario::renderClaims(
                  {claim("a", "missing"), claim("missing", "a"),
                   claim("a", "z"), scaled},
                  results),
              "claim: a/b = 150.0 (paper 1.703)\n");

    using E = Claim::Expect;
    EXPECT_EQ(scenario::renderClaims(
                  {claim("a", "b", E::Above), claim("a", "b", E::Below),
                   claim("b", "a", E::Above), claim("b", "a", E::Below),
                   claim("z", "b", E::Below)},
                  results),
              "claim: a/b = 1.50; a above b: holds\n"
              "claim: a/b = 1.50; a below b: fails\n"
              "claim: b/a = 0.6667; b above a: fails\n"
              "claim: b/a = 0.6667; b below a: holds\n"
              "claim: z/b = 0.0000; z below b: holds\n");

    // A metric no trial recorded prints nothing.
    Claim unknownMetric = claim("a", "b");
    unknownMetric.metric = "absent";
    EXPECT_EQ(scenario::renderClaims({unknownMetric}, results), "");
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

// --- the embedded paper specs ----------------------------------------

TEST(PaperSpecs, CommittedFilesAreCanonical)
{
    ASSERT_FALSE(bench::paperSpecs().empty());
    for (const bench::PaperSpec &spec : bench::paperSpecs()) {
        const std::string text(spec.text);
        const SpecFile file = parseSpecFile(text);
        EXPECT_EQ(file.name, spec.name);
        EXPECT_EQ(writeSpecFile(file), text) << spec.name;
        EXPECT_NE(Registry::instance().find(file.name), nullptr)
            << spec.name;
    }
}

#endif // C4_HAVE_BENCH_SCENARIOS

} // namespace
} // namespace c4::specio
