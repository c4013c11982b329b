// A policy that plays pre-programmed answers, for tests of the answer
// rule: the engines must reject an answer that is too long, repeats a
// set, or names a set that does not contain the element.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/algorithm.hpp"

namespace osp::testkit {

/// Answers the i-th decide() call with answers[i], whatever the
/// candidates.  decide() only has room for min(capacity, candidates)
/// entries, so an answer is written up to that room and its length is
/// reported up to the candidate count: an over-capacity answer reaches
/// the engine's count check, which fires before any entry is read, and
/// no engine buffer is overrun.
class Scripted final : public OnlineAlgorithm {
 public:
  explicit Scripted(std::vector<std::vector<SetId>> answers)
      : answers_(std::move(answers)) {}
  std::string name() const override { return "scripted"; }
  void start(const std::vector<SetMeta>& sets) override {
    metas_ = sets;
    calls_ = 0;
  }
  std::size_t decide(ElementId, Capacity capacity, const SetId*,
                     std::size_t num_candidates, SetId* out) override {
    const std::vector<SetId>& answer = answers_.at(calls_++);
    const std::size_t room = std::min<std::size_t>(capacity, num_candidates);
    std::copy_n(answer.begin(), std::min(answer.size(), room), out);
    return std::min(answer.size(), num_candidates);
  }
  const std::vector<SetMeta>& metas() const { return metas_; }

 private:
  std::vector<std::vector<SetId>> answers_;
  std::vector<SetMeta> metas_;
  std::size_t calls_ = 0;
};

}  // namespace osp::testkit
