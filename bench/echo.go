//go:build linux

package main

import (
	"fmt"
	"net"
	"os"
	"os/signal"
)

// runEcho is the socket floor: a bare read-datagram / write-datagram loop
// through the same net.UDPConn calls rootserve's read loop makes, with no
// DNS in between. Run as a child under the server's placement and driven by
// the serve_hot generator, its CPU per packet is what the kernel and the Go
// netpoller charge before dnsserver does any work.
func runEcho() error {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	fmt.Printf("sockecho listening on %s (udp)\n", conn.LocalAddr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		conn.Close()
	}()
	echoLoop(conn)
	return nil
}

// echoLoop sends every datagram back to where it came from until the
// connection is closed.
func echoLoop(conn *net.UDPConn) {
	buf := make([]byte, 64<<10)
	for {
		n, addr, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		if _, err := conn.WriteToUDPAddrPort(buf[:n], addr); err != nil {
			return
		}
	}
}
