// A small-buffer-optimized replacement for std::function<void()> on the
// simulator's event hot path.
//
// Every scheduled event used to be a std::function whose capture — most
// often a Link transmission closure carrying a Packet by value — exceeded
// libstdc++'s 16-byte inline buffer and forced one heap allocation (and
// one deallocation) per packet event. InplaceAction stores captures up to
// kInlineCapacity bytes directly inside the object, so the typical packet
// event never touches the allocator; larger captures fall back to a single
// heap cell transparently.
//
// Intentionally minimal: move-only, invoke-once-or-many, no target_type /
// allocator machinery. The dispatch table is one static per callable type.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace wehey::netsim {

class InplaceAction {
 public:
  /// Sized so a lambda capturing `this` + a Packet + a Time (the Link
  /// transmit closure, 88 bytes; the propagation closure is smaller) fits
  /// inline, with headroom for one more pointer-sized capture. With the
  /// vtable pointer and max_align_t alignment an action is 128 bytes — the
  /// event-heap slot size. Link asserts its closures fit.
  static constexpr std::size_t kInlineCapacity = 112;

  InplaceAction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceAction> &&
                std::is_invocable_v<std::decay_t<F>&>>>
  InplaceAction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  /// Construct a callable directly into this (empty or engaged) action —
  /// the zero-move path EventHeap uses to build events in their slots.
  template <typename F>
  void emplace(F&& f) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &inline_vtable<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &heap_vtable<Fn>;
    }
  }

  InplaceAction(InplaceAction&& other) noexcept { move_from(other); }

  InplaceAction& operator=(InplaceAction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InplaceAction(const InplaceAction&) = delete;
  InplaceAction& operator=(const InplaceAction&) = delete;

  ~InplaceAction() { reset(); }

  void operator()() { vt_->invoke(buf_); }

  explicit operator bool() const { return vt_ != nullptr; }

  void reset() {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  /// True when a callable of type Fn is stored inline (no heap cell).
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct VTable {
    void (*invoke)(void* self);
    /// Move-construct the stored callable from `src` into raw `dst`.
    void (*relocate)(void* src, void* dst) noexcept;
    /// Null for trivially destructible inline captures (the common case on
    /// the event hot path), so reset() skips the indirect call entirely.
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr VTable inline_vtable{
      [](void* self) { (*std::launder(static_cast<Fn*>(self)))(); },
      [](void* src, void* dst) noexcept {
        Fn* from = std::launder(static_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* self) noexcept {
              std::launder(static_cast<Fn*>(self))->~Fn();
            },
  };

  template <typename Fn>
  static constexpr VTable heap_vtable{
      [](void* self) { (**std::launder(static_cast<Fn**>(self)))(); },
      [](void* src, void* dst) noexcept {
        Fn** from = std::launder(static_cast<Fn**>(src));
        ::new (dst) Fn*(*from);
        *from = nullptr;
      },
      [](void* self) noexcept {
        delete *std::launder(static_cast<Fn**>(self));
      },
  };

  void move_from(InplaceAction& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(other.buf_, buf_);
      other.vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) std::byte buf_[kInlineCapacity];
};

}  // namespace wehey::netsim
