/**
 * @file
 * The scenario CLI's shared value grammar: one definition for every
 * binary that takes scenario options (c4bench, c4sweep, c4replay), so a
 * value copied between their command lines means the same run. The
 * c4bench command line itself is specio::scenarioMain (specio.h).
 */

#ifndef C4_SCENARIO_CLI_H
#define C4_SCENARIO_CLI_H

#include <cstdint>
#include <string>
#include <vector>

namespace c4::scenario {

/** Strict positive integer in [1, 1'000'000]. */
bool parseCliInt(const char *s, int &out);

/** Seed: decimal, or hex with an explicit 0x prefix — never octal,
 * matching spec-file "seed" strings. */
bool parseCliSeed(const char *s, std::uint64_t &out);

/** True when @p arg names a spec file (ends in ".json"). */
bool looksLikeSpecPath(const char *arg);

/** Append the non-empty comma-separated items of @p list to @p out
 * (the `--spec a,b` / `--only id1,id2` value grammar). */
void splitCommaList(const std::string &list,
                    std::vector<std::string> &out);

} // namespace c4::scenario

#endif // C4_SCENARIO_CLI_H
