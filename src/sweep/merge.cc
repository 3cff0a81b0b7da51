#include "sweep/merge.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <ostream>
#include <vector>

#include "common/csv.h"
#include "common/jsonl_files.h"
#include "specio/specio.h"
#include "sweep/manifest.h"

namespace c4::sweep {

namespace {

/** Split into physical lines, each keeping its trailing newline. */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size() - 1;
        lines.push_back(text.substr(start, end - start + 1));
        start = end + 1;
    }
    return lines;
}

} // namespace

std::string
mergeCampaign(const std::string &dir, const std::string &outCsv,
              std::ostream &diag)
{
    Manifest manifest;
    try {
        manifest = loadManifest(dir);
    } catch (const std::exception &e) {
        return e.what();
    }

    std::string header;
    std::string merged;
    std::size_t totalRows = 0;

    for (const ScenarioEntry &scenario : manifest.scenarios) {
        std::vector<const Shard *> shards;
        for (const Shard &s : manifest.shards) {
            if (s.scenario == scenario.name)
                shards.push_back(&s);
        }
        if (shards.empty()) {
            return "scenario '" + scenario.name +
                   "' has no shards in the manifest";
        }
        std::sort(shards.begin(), shards.end(),
                  [](const Shard *a, const Shard *b) {
                      return a->trialBegin < b->trialBegin;
                  });

        // The shard set must be a completed, exact partition of the
        // sweep — anything else cannot reproduce the single-process
        // file.
        int cursor = 0;
        for (const Shard *s : shards) {
            if (s->status != ShardStatus::Done) {
                return "shard " + s->id + " is " +
                       shardStatusName(s->status) +
                       "; run `c4sweep run " + dir + "` first";
            }
            if (s->trialBegin < cursor) {
                return "shards of '" + scenario.name +
                       "' overlap at trial " +
                       std::to_string(s->trialBegin);
            }
            if (s->trialBegin > cursor) {
                return "no shard of '" + scenario.name +
                       "' covers trials [" + std::to_string(cursor) +
                       ", " + std::to_string(s->trialBegin) + ")";
            }
            cursor += s->trialCount;
        }
        if (cursor != scenario.trials) {
            return "shards of '" + scenario.name + "' cover " +
                   std::to_string(cursor) + " of " +
                   std::to_string(scenario.trials) + " trials";
        }

        // Variant emission order, from the shard spec the workers ran
        // — the same order the single-process runner uses.
        std::vector<std::string> variantOrder;
        try {
            const specio::SpecFile file = specio::loadSpecFile(
                campaignPath(dir, shards.front()->spec));
            for (const auto &v : file.variants)
                variantOrder.push_back(v.variant);
        } catch (const std::exception &e) {
            return e.what();
        }

        // variant label -> raw CSV lines, per shard (shard order ==
        // trial order after the sort above).
        std::vector<std::map<std::string, std::string>> shardRows(
            shards.size());
        for (std::size_t i = 0; i < shards.size(); ++i) {
            const Shard &s = *shards[i];
            std::vector<std::string> lines;
            try {
                lines = splitLines(readFile(campaignPath(dir, s.csv)));
            } catch (const std::exception &e) {
                return std::string(e.what()) + " (shard " + s.id + ")";
            }
            if (lines.empty())
                return "shard " + s.id + " CSV is empty";
            if (header.empty())
                header = lines.front();
            if (lines.front() != header) {
                return "shard " + s.id +
                       " CSV header differs from the campaign's";
            }
            for (std::size_t l = 1; l < lines.size(); ++l) {
                const std::string &line = lines[l];
                if (std::count(line.begin(), line.end(), '"') % 2) {
                    return "shard " + s.id + " line " +
                           std::to_string(l + 1) +
                           ": embedded newlines in CSV fields are "
                           "not supported by the merger";
                }
                const auto rows = parseCsv(line);
                if (rows.size() != 1 || rows[0].size() != 6) {
                    return "shard " + s.id + " line " +
                           std::to_string(l + 1) +
                           ": expected 6 CSV fields";
                }
                const std::vector<std::string> &fields = rows[0];
                if (fields[0] != scenario.name) {
                    return "shard " + s.id + " line " +
                           std::to_string(l + 1) +
                           ": row belongs to scenario '" + fields[0] +
                           "', not '" + scenario.name + "'";
                }
                if (std::find(variantOrder.begin(),
                              variantOrder.end(),
                              fields[1]) == variantOrder.end()) {
                    return "shard " + s.id + " line " +
                           std::to_string(l + 1) +
                           ": unknown variant '" + fields[1] + "'";
                }
                char *end = nullptr;
                const long trial =
                    std::strtol(fields[2].c_str(), &end, 10);
                if (end == fields[2].c_str() || *end != '\0') {
                    return "shard " + s.id + " line " +
                           std::to_string(l + 1) +
                           ": unparseable trial field '" + fields[2] +
                           "'";
                }
                if (trial < s.trialBegin ||
                    trial >= s.trialBegin + s.trialCount) {
                    return "shard " + s.id + " line " +
                           std::to_string(l + 1) + ": trial " +
                           fields[2] + " outside the shard's range";
                }
                shardRows[i][fields[1]] += line;
                ++totalRows;
            }
        }

        // Interleave variant-major: all shards' rows of variant 0 (in
        // trial order), then variant 1, ... — the single-process
        // emission order.
        for (const std::string &variant : variantOrder) {
            for (auto &rowsByVariant : shardRows) {
                const auto it = rowsByVariant.find(variant);
                if (it != rowsByVariant.end())
                    merged += it->second;
            }
        }
    }

    if (header.empty())
        return "campaign has no shard CSVs to merge";
    const std::string output = header + merged;

    if (outCsv == "-") {
        std::cout << output;
        std::cout.flush();
    } else {
        try {
            writeFile(outCsv, output);
        } catch (const std::exception &e) {
            return e.what();
        }
    }
    diag << "merged " << totalRows << " row(s) from "
         << manifest.shards.size() << " shard(s)";
    if (outCsv != "-")
        diag << " into " << outCsv;
    diag << "\n";
    return "";
}

} // namespace c4::sweep
