// view_class_cache.hpp -- empty: engine L no longer caches view classes.
#pragma once

namespace locmm {

// Kept only because perfbench/src/edit_stream.cpp names it.
class ViewClassCache {};

}  // namespace locmm
