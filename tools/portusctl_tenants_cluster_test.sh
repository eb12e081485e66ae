#!/bin/sh
# End-to-end check of the portusctl subcommands that drive live daemons, in
# a temporary directory: `tenants` (two tenanted daemons under a small
# fleet) and each `cluster` resize depth (join, drain, decommission under a
# live client), checking exit codes and the lines an operator reads.
#
# usage: portusctl_tenants_cluster_test.sh PATH/TO/portusctl
set -u
ctl=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$ctl" tenants >tenants.out 2>&1 || fail "tenants exited $?"
header=$(grep '^TENANT ' tenants.out | head -n 1)
[ -n "$header" ] || fail "tenants printed no table header: $(cat tenants.out)"
case " $header " in
  *" WR "*) fail "tenants table still has a WR column: $header" ;;
esac
daemons=$(grep -c '^=== portusd' tenants.out)
admission=$(grep -c '^admission: ' tenants.out)
[ "$daemons" -eq 2 ] || fail "tenants rendered $daemons daemons, want 2"
[ "$admission" -eq "$daemons" ] ||
  fail "tenants printed $admission admission lines for $daemons daemons"

for op in join drain decommission; do
  "$ctl" cluster "$op" >"cluster-$op.out" 2>&1 || fail "cluster $op exited $?"
  grep -Eq '^restore: epoch [0-9]+, degraded=no$' "cluster-$op.out" ||
    fail "cluster $op printed no clean restore: $(cat "cluster-$op.out")"
done
echo "portusctl tenants + cluster ok"
