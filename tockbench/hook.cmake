# Passed to the repository's configure step as CMAKE_PROJECT_INCLUDE. Once the
# root CMakeLists.txt has defined every library and option, include the
# benchmark's build file into the same project. The repository's build files
# stay unchanged.
set(TOCKBENCH_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${TOCKBENCH_SOURCE_DIR}/CMakeLists.txt")
