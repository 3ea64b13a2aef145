// Small-buffer, move-only callable wrapper for allocation-free hot paths.
//
// `FixedFunction<R(Args...), N>` stores any callable whose decayed type
// fits in N bytes (and is nothrow-move-constructible) inline, with no
// heap allocation on construction, move, invocation, or destruction —
// the property the event kernel's schedule/fire path depends on. There
// is no heap fallback: a callable that does not fit fails to compile
// (`static_assert` in `emplace`), so allocation-free callables are a
// compile-time guarantee rather than a runtime count.
//
// Differences from std::function, all deliberate:
//   * move-only (captured state is never copied, so move-only captures
//     like unique_ptr work and accidental copies cannot allocate);
//   * no target_type()/target() RTTI surface;
//   * invoking an empty FixedFunction is undefined (asserted in debug)
//     rather than throwing std::bad_function_call.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mntp::core {

template <typename Signature, std::size_t N = 48>
class FixedFunction;

template <typename R, typename... Args, std::size_t N>
class FixedFunction<R(Args...), N> {
 public:
  static constexpr std::size_t kInlineBytes = N;

  FixedFunction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FixedFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  FixedFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  FixedFunction(FixedFunction&& other) noexcept { take(std::move(other)); }

  FixedFunction& operator=(FixedFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(std::move(other));
    }
    return *this;
  }

  FixedFunction(const FixedFunction&) = delete;
  FixedFunction& operator=(const FixedFunction&) = delete;

  ~FixedFunction() { reset(); }

  /// Destroy the held callable (if any); *this becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Destroy the current callable and construct `f` directly in this
  /// function's storage — no temporary FixedFunction, no relocation.
  /// The event queue's schedule path uses this to build the action
  /// in its slab slot in one step.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FixedFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  void emplace(F&& f) {
    reset();
    using Fn = std::decay_t<F>;
    static_assert(fits_inline<Fn>(),
                  "callable exceeds the FixedFunction inline buffer (or its "
                  "move may throw); shrink the capture or raise N");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  R operator()(Args... args) {
    assert(ops_ != nullptr && "invoking an empty FixedFunction");
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    /// Move-construct dst's storage from src's, then destroy src's.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= N && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr Ops kOps{
      [](void* storage, Args&&... args) -> R {
        return (*static_cast<Fn*>(storage))(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) noexcept {
        Fn* fn = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*fn));
        fn->~Fn();
      },
      [](void* storage) noexcept { static_cast<Fn*>(storage)->~Fn(); },
  };

  void take(FixedFunction&& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[N];
};

}  // namespace mntp::core
