from curvfun.cli import main
main()
