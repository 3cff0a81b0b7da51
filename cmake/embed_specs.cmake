# Embed the paper spec files into c4bench, run as `cmake -P` by the
# build whenever one of them changes: writes OUT with one
# {"<stem>", R"c4spec(<file bytes>)c4spec"} initializer per
# SPEC_DIR/*.json, sorted by name, for bench/paper_specs.cpp to
# #include.
#
# Inputs: SPEC_DIR (specs/paper), OUT (the generated .inc file).

file(GLOB specs "${SPEC_DIR}/*.json")
list(SORT specs)
set(body "// Generated from ${SPEC_DIR} by cmake/embed_specs.cmake.\n")
foreach(spec IN LISTS specs)
    get_filename_component(stem "${spec}" NAME_WE)
    file(READ "${spec}" text)
    string(FIND "${text}" ")c4spec\"" clash)
    if(NOT clash EQUAL -1)
        message(FATAL_ERROR
            "${spec} contains the raw-string delimiter )c4spec\"")
    endif()
    string(APPEND body "{\"${stem}\", R\"c4spec(${text})c4spec\"},\n")
endforeach()
file(WRITE "${OUT}" "${body}")
