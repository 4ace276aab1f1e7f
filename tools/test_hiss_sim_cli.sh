#!/usr/bin/env bash
# hiss_sim command-line contract: bad values must die cleanly with a
# "hiss_sim:" diagnostic and exit code 1 (not a crash), --help/--list
# must exit 0, the --seed/--reps overflow guard must hold, and a tiny
# checked run must succeed. Registered in ctest as hiss_sim_cli.
set -u

sim="$1"
failures=0

note() { printf '%s\n' "$*"; }

expect_exit0() {
    desc="$1"; shift
    out=$("$@" 2>&1); code=$?
    if [ "$code" -eq 0 ]; then
        note "ok: $desc"
    else
        note "FAIL: $desc (exit $code): $out"
        failures=$((failures + 1))
    fi
}

# Exit code must be exactly 1: the FatalError path. Anything >= 126
# would mean the parser crashed instead of diagnosing.
expect_clean_error() {
    desc="$1"; shift
    out=$("$@" 2>&1); code=$?
    if [ "$code" -eq 1 ] && printf '%s' "$out" | grep -q "hiss_sim:"; then
        note "ok: $desc"
    else
        note "FAIL: $desc (exit $code): $out"
        failures=$((failures + 1))
    fi
}

expect_exit0 "--help exits 0" "$sim" --help
expect_exit0 "--list exits 0" "$sim" --list
expect_exit0 "--describe exits 0" "$sim" --describe
expect_exit0 "tiny checked run" \
    "$sim" --gpu ubench --duration 0.2 --check
expect_exit0 "tiny reps run" \
    "$sim" --gpu ubench --duration 0.2 --reps 2 --jobs 2 --check

expect_clean_error "no workload" "$sim"
expect_clean_error "unknown argument" "$sim" --frobnicate
expect_clean_error "unknown CPU app" "$sim" --cpu nosuchapp
expect_clean_error "non-numeric --reps" "$sim" --cpu x264 --reps abc
expect_clean_error "float --reps" "$sim" --cpu x264 --reps 1e3
expect_clean_error "zero --reps" "$sim" --cpu x264 --reps 0
expect_clean_error "negative --jobs" "$sim" --cpu x264 --jobs -2
expect_clean_error "zero --cores" "$sim" --cpu x264 --cores 0
expect_clean_error "out-of-range --qos" "$sim" --gpu ubench --qos 2
expect_clean_error "zero --qos" "$sim" --gpu ubench --qos 0
expect_clean_error "non-numeric --seed" "$sim" --gpu ubench --seed banana
expect_clean_error "negative --seed" "$sim" --gpu ubench --seed -7
expect_clean_error "non-numeric --duration" "$sim" --gpu ubench --duration x
expect_clean_error "zero --accelerators" "$sim" --gpu ubench --accelerators 0
expect_clean_error "--steer core out of range" "$sim" --gpu ubench --steer 7
expect_clean_error "seed+reps overflow" \
    "$sim" --cpu x264 --seed 18446744073709551615 --reps 2

# Fault-injection flags: listed in --help, strict-parsed, and a tiny
# faulty checked run must complete cleanly (recovery, not a hang).
if "$sim" --help 2>&1 | grep -q -- '--fault-drop-irq'; then
    note "ok: --help lists the fault flags"
else
    note "FAIL: --help does not list --fault-drop-irq"
    failures=$((failures + 1))
fi
expect_exit0 "tiny faulty checked run" \
    "$sim" --gpu ubench --duration 0.5 --check \
    --fault-ppr-capacity 4 --fault-drop-irq 0.1 --fault-lose-signal 0.1
expect_clean_error "unknown fault flag" "$sim" --gpu ubench --fault-bogus
expect_clean_error "out-of-range --fault-drop-irq" \
    "$sim" --gpu ubench --fault-drop-irq 2
expect_clean_error "non-numeric --fault-dup-irq" \
    "$sim" --gpu ubench --fault-dup-irq maybe
expect_clean_error "zero --fault-ppr-capacity" \
    "$sim" --gpu ubench --fault-ppr-capacity 0
expect_clean_error "negative --fault-timeout" \
    "$sim" --gpu ubench --fault-timeout -5
expect_clean_error "missing --fault-retries value" \
    "$sim" --gpu ubench --fault-retries

# Snapshot I/O: a missing, garbage or wrong-version --snapshot-load
# file and an unwritable --snapshot-save path are diagnosed, not
# thrown out of main.
snapdir=$(mktemp -d)
trap 'rm -rf "$snapdir"' EXIT
printf 'garbage' > "$snapdir/garbage.hsnap"
expect_clean_error "missing --snapshot-load file" \
    "$sim" --gpu ubench --duration 0.2 \
    --snapshot-load "$snapdir/missing.hsnap"
expect_clean_error "7-byte garbage --snapshot-load file" \
    "$sim" --gpu ubench --duration 0.2 \
    --snapshot-load "$snapdir/garbage.hsnap"
expect_clean_error "--snapshot-save into a missing directory" \
    "$sim" --gpu ubench --duration 0.2 \
    --snapshot-save "$snapdir/no/such/dir/out.hsnap"
# The diagnostic names the path the user gave, not the temporary the
# atomic write goes through.
save_err=$("$sim" --gpu ubench --duration 0.2 \
    --snapshot-save "$snapdir/no/such/dir/out.hsnap" 2>&1)
if printf '%s' "$save_err" | grep -qF "'$snapdir/no/such/dir/out.hsnap'" \
        && ! printf '%s' "$save_err" | grep -qF ".tmp"; then
    note "ok: the --snapshot-save failure names the user's path"
else
    note "FAIL: the --snapshot-save failure does not name the user's path: $save_err"
    failures=$((failures + 1))
fi
# A snapshot stamped with an older format version (the u32 right
# after the 8-byte magic) is refused by name.
expect_exit0 "tiny snapshot save" \
    "$sim" --gpu ubench --duration 0.2 \
    --snapshot-save "$snapdir/current.hsnap"
for old in 1 2 3; do
    cp "$snapdir/current.hsnap" "$snapdir/v$old.hsnap"
    printf "\\00$old" | dd of="$snapdir/v$old.hsnap" bs=1 seek=8 count=1 \
        conv=notrunc 2> /dev/null
    expect_clean_error "format-version-$old --snapshot-load file" \
        "$sim" --gpu ubench --duration 0.2 \
        --snapshot-load "$snapdir/v$old.hsnap"
    if "$sim" --gpu ubench --duration 0.2 \
            --snapshot-load "$snapdir/v$old.hsnap" 2>&1 \
            | grep -q "format version $old unsupported"; then
        note "ok: the version-$old refusal names the format version"
    else
        note "FAIL: the version-$old refusal does not name the format version"
        failures=$((failures + 1))
    fi
done

if [ "$failures" -ne 0 ]; then
    note "$failures CLI contract check(s) failed"
    exit 1
fi
note "all CLI contract checks passed"
