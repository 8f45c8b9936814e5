// Command purity-cli manages volumes on a running purity-server.
//
// Usage:
//
//	purity-cli [-addr 127.0.0.1:7005] <command> [args]
//
// Commands:
//
//	create <name> <size-mib>      provision a thin volume
//	ls                            list volumes and snapshots
//	write <name> <offset> <text>  write text (zero-padded to sectors)
//	read <name> <offset> <len>    read bytes and print as text/hex
//	snap <name> <snap-name>       snapshot a volume
//	clone <snap-name> <new-name>  clone a snapshot
//	rm <name>                     delete a volume or snapshot
//	stats                         the stats document (JSON, versioned)
//	flush                         checkpoint everything
//	gc                            run a garbage-collection cycle
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"unicode"

	"purity/internal/client"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7005", "server address (either controller port)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	c, err := client.DialPipelined(*addr)
	if err != nil {
		log.Fatalf("connect: %v", err)
	}
	defer c.Close()
	if err := run(c, args); err != nil {
		log.Fatal(err)
	}
}

func resolve(c *client.Client, name string) (uint64, error) {
	id, _, err := c.OpenVolume(name)
	return id, err
}

func run(c *client.Client, args []string) error {
	switch cmd, rest := args[0], args[1:]; cmd {
	case "create":
		if len(rest) != 2 {
			return fmt.Errorf("usage: create <name> <size-mib>")
		}
		mib, err := strconv.ParseInt(rest[1], 10, 64)
		if err != nil {
			return err
		}
		id, err := c.CreateVolume(rest[0], mib<<20)
		if err != nil {
			return err
		}
		fmt.Printf("volume %q created (id %d, %d MiB)\n", rest[0], id, mib)

	case "ls":
		vols, err := c.ListVolumes()
		if err != nil {
			return err
		}
		fmt.Printf("%-6s %-24s %-10s %s\n", "ID", "NAME", "SIZE", "KIND")
		for _, v := range vols {
			kind := "volume"
			if v.Snapshot {
				kind = "snapshot"
			}
			fmt.Printf("%-6d %-24s %-10s %s\n", v.ID, v.Name, fmtSize(v.SizeBytes), kind)
		}

	case "write":
		if len(rest) != 3 {
			return fmt.Errorf("usage: write <name> <offset> <text>")
		}
		id, err := resolve(c, rest[0])
		if err != nil {
			return err
		}
		off, err := strconv.ParseInt(rest[1], 10, 64)
		if err != nil {
			return err
		}
		data := []byte(rest[2])
		// Pad to a sector multiple, as a block initiator would.
		padded := make([]byte, (len(data)+511)/512*512)
		copy(padded, data)
		if err := c.WriteAt(id, off, padded); err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes (padded to %d) at %d\n", len(data), len(padded), off)

	case "read":
		if len(rest) != 3 {
			return fmt.Errorf("usage: read <name> <offset> <len>")
		}
		id, err := resolve(c, rest[0])
		if err != nil {
			return err
		}
		off, err := strconv.ParseInt(rest[1], 10, 64)
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(rest[2])
		if err != nil {
			return err
		}
		n = (n + 511) / 512 * 512
		data, err := c.ReadAt(id, off, n)
		if err != nil {
			return err
		}
		printable := true
		for _, b := range data {
			if b != 0 && !unicode.IsPrint(rune(b)) && b != '\n' && b != '\t' {
				printable = false
				break
			}
		}
		if printable {
			fmt.Printf("%q\n", trimZeros(data))
		} else {
			fmt.Printf("% x\n", data)
		}

	case "snap":
		if len(rest) != 2 {
			return fmt.Errorf("usage: snap <name> <snap-name>")
		}
		id, err := resolve(c, rest[0])
		if err != nil {
			return err
		}
		sid, err := c.Snapshot(id, rest[1])
		if err != nil {
			return err
		}
		fmt.Printf("snapshot %q created (id %d)\n", rest[1], sid)

	case "clone":
		if len(rest) != 2 {
			return fmt.Errorf("usage: clone <snap-name> <new-name>")
		}
		id, err := resolve(c, rest[0])
		if err != nil {
			return err
		}
		cid, err := c.Clone(id, rest[1])
		if err != nil {
			return err
		}
		fmt.Printf("clone %q created (id %d)\n", rest[1], cid)

	case "rm":
		if len(rest) != 1 {
			return fmt.Errorf("usage: rm <name>")
		}
		id, err := resolve(c, rest[0])
		if err != nil {
			return err
		}
		if err := c.Delete(id); err != nil {
			return err
		}
		fmt.Printf("deleted %q\n", rest[0])

	case "stats":
		doc, err := c.Stats()
		if err != nil {
			return err
		}
		fmt.Println(doc)

	case "flush":
		if err := c.Flush(); err != nil {
			return err
		}
		fmt.Println("checkpointed")

	case "gc":
		rep, err := c.GC()
		if err != nil {
			return err
		}
		fmt.Println(rep)

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

func fmtSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func trimZeros(b []byte) []byte {
	i := len(b)
	for i > 0 && b[i-1] == 0 {
		i--
	}
	return b[:i]
}
