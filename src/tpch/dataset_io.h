#ifndef DMR_TPCH_DATASET_IO_H_
#define DMR_TPCH_DATASET_IO_H_

#include <string>

#include "common/result.h"
#include "tpch/generator.h"

namespace dmr::tpch {

/// \brief On-disk layout for materialized datasets.
///
/// A dataset directory holds one '|'-separated text file per partition
/// (part-00000.tbl, part-00001.tbl, ...) plus a MANIFEST in Properties
/// format recording the predicate and per-partition matching counts — the
/// un-indexed, filesystem-resident form of the data the paper samples from.

/// Writes `dataset` under `dir` (created if absent; must be empty of
/// previous parts or the write fails with AlreadyExists).
Status WriteDatasetToDirectory(const MaterializedDataset& dataset,
                               const std::string& dir);

/// Reads a dataset directory written by WriteDatasetToDirectory. A MANIFEST
/// whose partition count exceeds its entries, or whose matching count for a
/// partition exceeds that partition's rows, is a ParseError.
Result<MaterializedDataset> ReadDatasetFromDirectory(const std::string& dir);

/// Reads one partition file (rows in SerializeRow format, one per line;
/// blank lines are skipped). A malformed row, or a date that is not strict
/// 'YYYY-MM-DD', is a ParseError naming `path:line`.
Result<ColumnarPartition> ReadPartitionFile(const std::string& path);

/// Name of partition `index`'s file within a dataset directory.
std::string PartitionFileName(int index);

}  // namespace dmr::tpch

#endif  // DMR_TPCH_DATASET_IO_H_
