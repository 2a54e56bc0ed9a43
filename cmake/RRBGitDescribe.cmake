# Write a header defining RRB_GIT_DESCRIBE as the checkout's
# `git describe --always --dirty --tags` ("unknown" outside a git checkout):
#
#   cmake -DSOURCE_DIR=<checkout> -DOUT=<header> -P RRBGitDescribe.cmake
#
# bench/CMakeLists.txt runs this on every build, so a binary rebuilt after a
# commit reports that commit. The header is rewritten only when the text
# changes, so an unchanged revision recompiles nothing.
if(NOT SOURCE_DIR OR NOT OUT)
  message(FATAL_ERROR "usage: cmake -DSOURCE_DIR=<dir> -DOUT=<header> -P RRBGitDescribe.cmake")
endif()
execute_process(
  COMMAND git describe --always --dirty --tags
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE describe
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT describe)
  set(describe "unknown")
endif()
set(text "#pragma once\n#define RRB_GIT_DESCRIBE \"${describe}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUT} "${text}")
endif()
