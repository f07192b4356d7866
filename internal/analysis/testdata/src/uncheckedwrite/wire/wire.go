// Package wire is a fixture stub mirroring livenas/internal/wire: the
// unchecked-write check matches package-level WriteFrame functions of
// packages named "wire".
package wire

import "io"

type Message struct{ Type int }

func WriteFrame(w io.Writer, m *Message) error {
	_, err := w.Write([]byte{byte(m.Type)})
	return err
}
