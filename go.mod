module raidii

go 1.23
