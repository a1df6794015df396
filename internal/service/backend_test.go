package service

import (
	"net"
	"os"
	"strings"
	"testing"
)

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(entries)
}

// listen opens a loopback listener that never accepts: the kernel completes
// each handshake into its backlog, so a dial succeeds without opening a
// descriptor on this side.
func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l
}

// refusingAddr returns a loopback address nobody listens on.
func refusingAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

// TestTCPDialerKeepsOrderAndRedial: the links come back in address order,
// each named after its address, and each Redial reaches its own member.
func TestTCPDialerKeepsOrderAndRedial(t *testing.T) {
	addrs := []string{listen(t).Addr().String(), listen(t).Addr().String(), listen(t).Addr().String()}
	links, cleanup, err := NewTCPDialer(addrs, 0)()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if len(links) != len(addrs) {
		t.Fatalf("%d links for %d addresses", len(links), len(addrs))
	}
	for i, l := range links {
		if l.Name != addrs[i] || l.Conn == nil || l.Redial == nil {
			t.Fatalf("link %d: name %q, conn %v, redial set %v; want %q with both", i, l.Name, l.Conn, l.Redial != nil, addrs[i])
		}
		c, err := l.Redial()
		if err != nil {
			t.Fatalf("link %d redial: %v", i, err)
		}
		_ = c.Close()
	}
}

// TestTCPDialerClosesEveryConnOnFailure: one refusing address among live
// ones fails the whole dial, names that address, and leaves no connection
// open behind it.
func TestTCPDialerClosesEveryConnOnFailure(t *testing.T) {
	refused := refusingAddr(t)
	addrs := []string{listen(t).Addr().String(), refused, listen(t).Addr().String(), listen(t).Addr().String()}
	before := openFDs(t)
	links, cleanup, err := NewTCPDialer(addrs, 0)()
	if err == nil {
		cleanup()
		t.Fatal("dial succeeded with a refusing member")
	}
	if links != nil || cleanup != nil {
		t.Error("a failed dial returned links or a cleanup")
	}
	if !strings.Contains(err.Error(), refused) {
		t.Errorf("error %q does not name the refusing address %s", err, refused)
	}
	if after := openFDs(t); after != before {
		t.Errorf("%d descriptors open before the dial, %d after", before, after)
	}
}
