#pragma once
#include <mutex>

#include "common/thread_annotations.h"

struct FixtureSuppressed {
  std::mutex mu;
  // owned by the worker thread only. mmhar: allow(lock-annotation-coverage)
  int scratch = 0;
};
