// Restore sink — where a planned restore writes a version's bytes
// (DESIGN.md §5o).
//
// A restore walks the version's recipe in order and calls, for each file,
// begin_file(), then chunk() once per chunk of its file index, then
// end_file(); a file with no chunks gets begin_file() and end_file() only.
// Each span passed to chunk() views the chunk inside the container the
// LPC caches, so a sink copies its bytes exactly once, into wherever it
// keeps them. A span is valid only until the sink's next call returns
// control to the restore.
//
// A sink that returns an error stops the restore, which returns that
// error; the sink then gets no further calls (not even end_file()).
#pragma once

#include "common/result.hpp"
#include "common/types.hpp"
#include "core/metadata.hpp"

namespace debar::core {

class RestoreSink {
 public:
  virtual ~RestoreSink() = default;

  [[nodiscard]] virtual Status begin_file(const FileRecord& file) = 0;
  [[nodiscard]] virtual Status chunk(ByteSpan data) = 0;
  [[nodiscard]] virtual Status end_file() = 0;
};

/// Collects a restore into a Dataset held in memory.
class DatasetSink final : public RestoreSink {
 public:
  explicit DatasetSink(Dataset& out) : out_(out) {}
  Status begin_file(const FileRecord& file) override {
    FileData& data = out_.files.emplace_back();
    data.path = file.meta.path;
    data.content.reserve(file.logical_bytes());
    return Status::Ok();
  }
  Status chunk(ByteSpan data) override {
    std::vector<Byte>& content = out_.files.back().content;
    content.insert(content.end(), data.begin(), data.end());
    return Status::Ok();
  }
  Status end_file() override { return Status::Ok(); }

 private:
  Dataset& out_;
};

}  // namespace debar::core
