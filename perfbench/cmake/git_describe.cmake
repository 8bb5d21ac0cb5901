# src/obs/CMakeLists.txt runs ${CMAKE_SOURCE_DIR}/cmake/git_describe.cmake;
# with perfbench as the top-level project that path lands here, so forward
# to the repo's script (it writes "unknown" outside a git checkout).
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/git_describe.cmake)
