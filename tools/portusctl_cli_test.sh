#!/bin/sh
# End-to-end check of the portusctl CLI on one image file, in a temporary
# directory: demo, view, dump (a demo model and an unknown one), repack and
# fsck --verify-only, checking exit codes, outputs and error text.
#
# usage: portusctl_cli_test.sh PATH/TO/portusctl
set -u
ctl=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$ctl" demo store.img >demo.out 2>&1 || fail "demo exited $?"
"$ctl" view store.img >view.out 2>&1 || fail "view exited $?"
grep -q resnet50 view.out || fail "view does not list resnet50"

"$ctl" dump store.img resnet50 out.ptck >dump.out 2>&1 || fail "dump of resnet50 exited $?"
[ -s out.ptck ] || fail "dump of resnet50 wrote no container"

"$ctl" dump store.img nosuchmodel bad.ptck >missing.out 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "dump of an unknown model exited $rc, want 1"
grep -qx 'error: model not in ModelTable: nosuchmodel' missing.out ||
  fail "dump of an unknown model printed: $(cat missing.out)"
[ ! -e bad.ptck ] || fail "failed dump left an output file"

"$ctl" repack store.img >repack.out 2>&1 || fail "repack exited $?"
"$ctl" fsck store.img --verify-only >fsck.out 2>&1 || fail "fsck --verify-only exited $?"
echo "portusctl CLI ok"
