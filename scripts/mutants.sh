#!/usr/bin/env sh
# Mutation check: each scripts/mutants/*.patch breaks the code on purpose,
# and the test it names must catch the break. The patches are applied one
# at a time to a scratch git worktree of HEAD (the working tree is never
# touched), the named test runs there, and a mutant that the test lets
# pass fails this script. A patch names its test on a line
#
#   Test: <arguments to cargo test --release -q>
#
# above the diff. Run from anywhere in the repository:
#
#   scripts/mutants.sh                   # every patch
#   scripts/mutants.sh scripts/mutants/intersect-unmark.patch   # some
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

if [ "$#" -eq 0 ]; then
    set -- "$root"/scripts/mutants/*.patch
fi

work=$(mktemp -d)
tree="$work/tree"
cleanup() {
    git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT INT TERM
git worktree add --quiet --detach "$tree" HEAD

survived=0
for patch in "$@"; do
    patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
    name=$(basename "$patch" .patch)
    args=$(sed -n 's/^Test: //p' "$patch" | head -n 1)
    if [ -z "$args" ]; then
        echo "mutant $name: no 'Test:' line" >&2
        exit 2
    fi
    git -C "$tree" apply "$patch"
    # One worktree for every mutant keeps the build incremental: only the
    # crates a patch touches recompile. A mutant that does not build tests
    # nothing, so it fails the check rather than counting as killed.
    if ! (cd "$tree" && eval "cargo test --release --offline -q --no-run $args") >"$work/$name.log" 2>&1; then
        cat "$work/$name.log" >&2
        echo "mutant $name does not build" >&2
        exit 2
    fi
    if (cd "$tree" && eval "cargo test --release --offline -q $args") >"$work/$name.log" 2>&1; then
        echo "mutant $name SURVIVED: cargo test $args passed"
        survived=$((survived + 1))
    else
        echo "mutant $name killed by cargo test $args"
    fi
    git -C "$tree" checkout --quiet -- .
done

if [ "$survived" -gt 0 ]; then
    echo "$survived mutant(s) survived" >&2
    exit 1
fi
