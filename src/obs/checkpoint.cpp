#include "obs/checkpoint.hpp"

#include <sstream>

#include "obs/inspect.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"

namespace wehey::obs {

bool CheckpointWriter::open(const std::string& path,
                            const std::string& sweep) {
  close();
  // A kill mid-append leaves a torn final line (no trailing newline).
  // The loader drops it; drop it here too, or the next append would be
  // glued onto the fragment and corrupt a later resume's journal.
  std::string text;
  if (read_file(path, text) && !text.empty() && text.back() != '\n') {
    const std::size_t keep = text.find_last_of('\n');
    const std::size_t len = keep == std::string::npos ? 0 : keep + 1;
    if (std::FILE* trim = std::fopen(path.c_str(), "wb")) {
      if (len > 0) std::fwrite(text.data(), 1, len, trim);
      std::fclose(trim);
    }
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) return false;
  sweep_ = sweep;
  return true;
}

void CheckpointWriter::append(const CheckpointEntry& entry) {
  if (file_ == nullptr) return;
  std::ostringstream line;
  line << "{\"schema\": \"" << kSweepCheckpointSchema << "\", \"sweep\": \""
       << json_escape(sweep_) << "\", \"run\": \"" << json_escape(entry.run)
       << "\", \"cell\": \"" << json_escape(entry.cell)
       << "\", \"seed\": " << entry.seed << ", \"index\": " << entry.index
       << ", \"report\": \"" << json_escape(entry.report_json) << "\"}\n";
  const std::string text = line.str();
  std::fwrite(text.data(), 1, text.size(), file_);
  // One flush per run: a kill -9 loses at most the line being written,
  // which the loader drops as a torn trailing line.
  std::fflush(file_);
}

void CheckpointWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool CheckpointJournal::load(const std::string& path, CheckpointJournal& out,
                             std::string* error) {
  out = CheckpointJournal{};
  std::string text;
  if (!read_file(path, text)) return true;  // no journal yet: empty resume
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    const bool last = eol == std::string::npos;
    const std::string line =
        text.substr(pos, last ? std::string::npos : eol - pos);
    pos = last ? text.size() : eol + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonValue doc;
    std::string parse_error;
    CheckpointEntry entry;
    const bool ok = json_parse(line, doc, &parse_error) &&
                    doc.at("schema").str == kSweepCheckpointSchema &&
                    doc.at("run").type == JsonValue::Type::String &&
                    doc.at("report").type == JsonValue::Type::String &&
                    doc.at("seed").integer(entry.seed) &&
                    doc.at("index").integer(entry.index);
    if (!ok) {
      // The interrupted append leaves a torn final line; anything after a
      // flushed bad line is unreachable by construction, so stop either
      // way and only flag mid-file corruption.
      const bool trailing =
          text.find_first_not_of(" \t\r\n", pos) == std::string::npos;
      if (trailing) return true;
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_no) +
                 ": malformed checkpoint line (" +
                 (parse_error.empty() ? "missing or malformed fields" : parse_error) + ")";
      }
      return false;
    }
    entry.run = doc.at("run").str;
    entry.cell = doc.at("cell").str;
    entry.report_json = doc.at("report").str;
    if (out.sweep_.empty()) out.sweep_ = doc.at("sweep").str;
    auto [it, inserted] =
        out.by_run_.try_emplace(entry.run, out.entries_.size());
    if (inserted) {
      out.entries_.push_back(std::move(entry));
    } else {
      out.entries_[it->second] = std::move(entry);
    }
  }
  return true;
}

const CheckpointEntry* CheckpointJournal::find(
    const std::string& run_id) const {
  const auto it = by_run_.find(run_id);
  return it == by_run_.end() ? nullptr : &entries_[it->second];
}

}  // namespace wehey::obs
