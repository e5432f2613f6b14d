# Drives the CLI end to end: generate a cohort, assess it, write a release.
# `gen` gets a nested path that does not exist yet: it must create the
# directory and its missing parents.
file(REMOVE_RECURSE ${WORKDIR})
set(COHORT ${WORKDIR}/nested/cohort)

execute_process(
  COMMAND ${CLI} gen ${COHORT} --cases 400 --controls 400 --snps 120 --gdos 3
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gendpr gen failed (${rc})")
endif()
if(NOT EXISTS ${COHORT}/reference.vcf)
  message(FATAL_ERROR "gendpr gen did not write ${COHORT}/reference.vcf")
endif()

execute_process(
  COMMAND ${CLI} assess ${COHORT} --gdos 3 --report ${WORKDIR}/report.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gendpr assess failed (${rc})")
endif()
if(NOT out MATCHES "SNPs safe")
  message(FATAL_ERROR "assess output missing safe-SNP line: ${out}")
endif()
if(NOT EXISTS ${WORKDIR}/report.json)
  message(FATAL_ERROR "report.json was not written")
endif()
file(READ ${WORKDIR}/report.json report)
if(NOT report MATCHES "gendpr.run_report.v2")
  message(FATAL_ERROR "report.json missing schema marker")
endif()
if(NOT report MATCHES "phase.maf")
  message(FATAL_ERROR "report.json missing MAF phase span")
endif()

execute_process(
  COMMAND ${CLI} release ${COHORT} --gdos 3 --out ${WORKDIR}/release.tsv
          --dp-epsilon 1.0
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gendpr release failed (${rc})")
endif()
if(NOT EXISTS ${WORKDIR}/release.tsv)
  message(FATAL_ERROR "release.tsv was not written")
endif()
file(READ ${WORKDIR}/release.tsv tsv)
if(NOT tsv MATCHES "snp\tmode\tcase_count")
  message(FATAL_ERROR "release.tsv missing header")
endif()

# Exactly two transports exist; anything else (uring, tcp) is a usage
# error, never a silent fallback.
foreach(transport uring tcp)
  execute_process(
    COMMAND ${CLI} assess ${COHORT} --gdos 3 --transport ${transport}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "--transport ${transport} was accepted: ${out}")
  endif()
  if(NOT err MATCHES "usage: gendpr")
    message(FATAL_ERROR "--transport ${transport} printed no usage: ${err}")
  endif()
endforeach()
# The combination sweep has one form: the retired --no-prune switch is an
# unknown flag like any other.
execute_process(
  COMMAND ${CLI} assess ${COHORT} --gdos 3 --f 1 --no-prune
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "--no-prune was accepted: ${out}")
endif()
if(NOT err MATCHES "usage: gendpr")
  message(FATAL_ERROR "--no-prune printed no usage: ${err}")
endif()
foreach(transport in_process epoll)
  execute_process(
    COMMAND ${CLI} release ${COHORT} --gdos 3 --transport ${transport}
            --out ${WORKDIR}/release_${transport}.tsv
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gendpr release --transport ${transport} failed (${rc})")
  endif()
endforeach()
file(READ ${WORKDIR}/release_in_process.tsv tsv_in_process)
file(READ ${WORKDIR}/release_epoll.tsv tsv_epoll)
if(NOT tsv_in_process STREQUAL tsv_epoll)
  message(FATAL_ERROR "in_process and epoll releases differ")
endif()

# A workspace whose files disagree on the SNPs is refused before the study:
# a 100-SNP reference panel next to 120-SNP slices, and a 100-SNP slice
# among 120-SNP files. Both exit non-zero and write no TSV.
set(NARROW ${WORKDIR}/narrow)
execute_process(
  COMMAND ${CLI} gen ${NARROW} --cases 400 --controls 400 --snps 100 --gdos 3
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gendpr gen of the 100-SNP cohort failed (${rc})")
endif()
foreach(mixed reference.vcf gdo1.vcf)
  set(MIXED ${WORKDIR}/mixed_${mixed})
  file(REMOVE_RECURSE ${MIXED})
  file(COPY ${COHORT}/ DESTINATION ${MIXED})
  # file(COPY) skips a file whose destination has the same timestamp.
  file(REMOVE ${MIXED}/${mixed})
  file(COPY ${NARROW}/${mixed} DESTINATION ${MIXED})
  execute_process(
    COMMAND ${CLI} release ${MIXED} --gdos 3 --out ${MIXED}/release.tsv
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "release over a 100-SNP ${mixed} among 120-SNP files "
                        "was accepted: ${out}")
  endif()
  if(NOT err MATCHES "invalid_argument: .*${mixed}")
    message(FATAL_ERROR "mixed ${mixed}: the error does not name the file: ${err}")
  endif()
  if(EXISTS ${MIXED}/release.tsv)
    message(FATAL_ERROR "mixed ${mixed}: a release TSV was written")
  endif()
endforeach()
