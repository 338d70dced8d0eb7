package headtrace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV serializes traces in the dataset layout of the MMSys'17 dataset:
// one row per sample with columns user, video, t, yaw, pitch.
func WriteCSV(w io.Writer, traces []*Trace) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"user", "video", "t", "yaw", "pitch"}); err != nil {
		return fmt.Errorf("headtrace: write header: %w", err)
	}
	for _, tr := range traces {
		user := strconv.Itoa(tr.UserID)
		vid := strconv.Itoa(tr.VideoID)
		for _, s := range tr.Samples {
			rec := []string{
				user,
				vid,
				strconv.FormatFloat(s.T, 'f', 4, 64),
				strconv.FormatFloat(s.O.Yaw, 'f', 4, 64),
				strconv.FormatFloat(s.O.Pitch, 'f', 4, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("headtrace: write sample: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("headtrace: flush: %w", err)
	}
	return bw.Flush()
}
