#ifndef DMR_MAPRED_INPUT_SPLITS_H_
#define DMR_MAPRED_INPUT_SPLITS_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "dfs/file_system.h"
#include "mapred/types.h"

namespace dmr::mapred {

/// \brief Builds the engine's split table for a DFS file, attaching the
/// per-partition matching-record counts from the dataset's skew profile.
///
/// `matching_per_partition` must have one entry per file partition; pass an
/// empty vector for jobs whose output model ignores matching counts.
Result<std::shared_ptr<const SplitTable>> MakeInputSplits(
    const dfs::FileInfo& file,
    const std::vector<uint64_t>& matching_per_partition);

}  // namespace dmr::mapred

#endif  // DMR_MAPRED_INPUT_SPLITS_H_
