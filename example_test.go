package ptile360_test

import (
	"fmt"

	"ptile360"
)

// Example streams one video with the paper's algorithm and reports the
// headline session metrics.
func Example() {
	sys, err := ptile360.NewSystem(ptile360.Scale{
		UsersPerVideo: 14,
		TrainUsers:    10,
		EvalUsers:     4,
		Videos:        []int{2},
		TraceSamples:  250,
		Seed:          5,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	prep, err := sys.PrepareVideo(2)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := sys.Stream(prep, 0, ptile360.SchemeOurs, ptile360.Pixel3, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("video=%d scheme=%v segments=%d\n", res.VideoID, res.Scheme, res.Segments)
	fmt.Printf("frame rate reduced below source: %v\n", res.MeanFrameRate < 30)
	// Output:
	// video=2 scheme=Ours segments=172
	// frame rate reduced below source: true
}

// ExampleRunExperiment regenerates one of the paper's tables through the
// experiment registry.
func ExampleRunExperiment() {
	tables, err := ptile360.RunExperiment("table3", ptile360.QuickScale())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(len(tables), "table(s)")
	fmt.Println(tables[0].Rows[7][2])
	// Output:
	// 1 table(s)
	// Freestyle Skiing
}

// ExampleVideos lists the Table III catalogue.
func ExampleVideos() {
	for _, v := range ptile360.Videos()[:3] {
		fmt.Printf("%d %s (%v)\n", v.ID, v.Name, v.Class)
	}
	// Output:
	// 1 Basketball Match (focused)
	// 2 Showtime Boxing (focused)
	// 3 Festival Gala (focused)
}
