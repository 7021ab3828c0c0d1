from parreg.cli import main
raise SystemExit(main())
