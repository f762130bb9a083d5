// Streaming storage for timeline events.
//
// A TraceSink is the backing store behind Timeline. By default it is a
// plain in-memory vector — exactly the pre-existing behaviour. When
// configured with a buffer capacity (env knob WEHEY_TRACE_BUFFER_EVENTS,
// wired in ObservedSweep, sweep.hpp), completed events spill to disk in
// bounded, fixed-size chunks as soon as the buffer fills, so a traced
// WEHEY_FULL=1 grid no longer has to hold the whole run in memory.
//
// Determinism contract: append order is preserved exactly — chunks are
// numbered in flush order and re-read 0..k-1 before the in-memory tail at
// finalize — so the rendered Chrome JSON / CSV is byte-identical to the
// unbounded in-memory path, for any buffer size and any WEHEY_THREADS.
//
// Chunk files live next to the final trace ("<base>.chunk000", ...) in a
// private binary framing and are deleted when the sink is cleared or
// destroyed; they are an implementation detail, not an output format.
#pragma once

#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "obs/timeline_event.hpp"

namespace wehey::obs {

class TraceSink {
 public:
  TraceSink() = default;
  ~TraceSink();
  TraceSink(TraceSink&& other) noexcept;
  TraceSink& operator=(TraceSink&& other) noexcept;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Enable spilling: buffer at most `capacity_events` in memory, writing
  /// full buffers to "<chunk_base>.chunkNNN". capacity_events == 0 keeps
  /// the unbounded in-memory store. Call before the first append.
  void configure(std::size_t capacity_events, std::string chunk_base);

  bool spilling() const { return capacity_ > 0 && !chunk_base_.empty(); }
  std::size_t spilled() const { return spilled_; }
  std::size_t chunk_count() const { return chunks_; }

  void append(TimelineEvent ev);

  std::size_t size() const { return spilled_ + buffer_.size(); }
  bool empty() const { return size() == 0; }

  /// The in-memory tail (everything, when not spilling).
  const std::vector<TimelineEvent>& buffer() const { return buffer_; }
  /// Mutable access for bulk moves (Timeline::absorb); the caller must
  /// keep append order intact.
  std::vector<TimelineEvent>& mutable_buffer() { return buffer_; }

  /// Visit every event in append order: chunk files 0..k-1, then the
  /// buffer. Returns false if a chunk file is missing or corrupt.
  bool for_each(const std::function<void(const TimelineEvent&)>& fn) const;

  /// Drop everything: buffered events and any chunk files on disk.
  void clear();

  /// Path of spill chunk `index` for a given base (exposed for tests).
  static std::string chunk_path(const std::string& base, std::size_t index);

 private:
  void flush_chunk();
  void remove_chunks();

  std::vector<TimelineEvent> buffer_;
  std::size_t capacity_ = 0;  ///< 0 = unbounded in-memory
  std::string chunk_base_;
  std::size_t chunks_ = 0;
  std::size_t spilled_ = 0;
};

}  // namespace wehey::obs
